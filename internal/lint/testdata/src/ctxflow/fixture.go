// Package fixture exercises the ctxflow analyzer: functions that are
// handed a context (or an *http.Request, which carries one) must thread it
// through their blocking calls; functions without one, nested literals
// included, are left alone.
package fixture

import (
	"context"
	"net/http"
	"time"
)

// GoodTimer waits the cancellable way.
func GoodTimer(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// GoodRequest builds the request with the context attached.
func GoodRequest(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	_ = req
	return nil
}

// GoodNoCtx has no context to thread; a plain sleep is fine.
func GoodNoCtx() {
	time.Sleep(time.Millisecond)
}

// BadSleep ignores the deadline it was handed.
func BadSleep(ctx context.Context) {
	time.Sleep(time.Second) // flagged
}

// BadSleepValue hides the same bug behind a function value.
func BadSleepValue(ctx context.Context) {
	wait := time.Sleep // flagged: the reference, not just a call
	wait(time.Millisecond)
}

// BadGet uses the context-less entry point.
func BadGet(ctx context.Context, url string) {
	resp, err := http.Get(url) // flagged
	if err == nil {
		resp.Body.Close()
	}
}

// BadNewRequest drops the context at construction time.
func BadNewRequest(ctx context.Context, url string) {
	req, _ := http.NewRequest(http.MethodGet, url, nil) // flagged
	_ = req
}

// BadHandler shows *http.Request counts as carrying a context.
func BadHandler(w http.ResponseWriter, r *http.Request) {
	time.Sleep(time.Millisecond) // flagged
}

// GoodNestedLiteral hands the wait to a literal that has no context of
// its own; the literal is its own unit and is not flagged.
func GoodNestedLiteral(ctx context.Context) func() {
	return func() { time.Sleep(time.Millisecond) }
}

// SuppressedSleep documents a deliberate uninterruptible pause.
func SuppressedSleep(ctx context.Context) {
	//ecolint:ignore ctxflow fixed settle delay, far shorter than any deadline the caller sets
	time.Sleep(time.Microsecond)
}
