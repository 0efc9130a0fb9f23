package eis

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTransportConnectionReuse is the load-readiness regression test: N
// sequential waves of concurrent requests through DefaultTransport must
// reuse connections instead of re-dialing. The stdlib default transport
// keeps only 2 idle connections per host, so at concurrency 8 it dials on
// almost every wave — if this test starts failing, load results measure
// TCP handshakes again.
func TestTransportConnectionReuse(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("ok"))
	}))
	defer ts.Close()

	const concurrency, waves = 8, 5
	client := &http.Client{
		Timeout:   5 * time.Second,
		Transport: DefaultTransport(concurrency, false),
	}

	// A dial that a request started but did not need (another request's
	// connection came free first) still completes and joins the idle pool.
	// So does every connection once its request's body is read, on the
	// transport's read loop, after the request has returned. A wave that
	// starts before all of that has happened races it for the pool, and the
	// losers dial. settled waits, with a bound, until every dial started is
	// done and every request so far has offered its connection back.
	var dials, dialed, puts, reused atomic.Int64
	moved := make(chan struct{}, 1) // a dial finished or a connection went back
	nudge := func() {
		select {
		case moved <- struct{}{}:
		default:
		}
	}
	trace := &httptrace.ClientTrace{
		ConnectStart: func(_, _ string) { dials.Add(1) },
		ConnectDone:  func(_, _ string, _ error) { dialed.Add(1); nudge() },
		PutIdleConn:  func(error) { puts.Add(1); nudge() },
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				reused.Add(1)
			}
		},
	}
	settled := func(requests int64) {
		bound := time.After(5 * time.Second)
		for dialed.Load() != dials.Load() || puts.Load() != requests {
			select {
			case <-moved:
			case <-bound:
				t.Fatalf("after %d requests: %d of %d dials done, %d connections offered back to the pool",
					requests, dialed.Load(), dials.Load(), puts.Load())
			}
		}
	}
	do := func() error {
		req, err := http.NewRequestWithContext(
			httptrace.WithClientTrace(context.Background(), trace),
			http.MethodGet, ts.URL, nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		// Drain before closing: an unread body forfeits the connection.
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return nil
	}

	for wave := 0; wave < waves; wave++ {
		settled(int64(wave * concurrency))
		var wg sync.WaitGroup
		errs := make(chan error, concurrency)
		for i := 0; i < concurrency; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- do()
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	total := int64(concurrency * waves)
	// The first wave may dial up to `concurrency` connections; every later
	// wave must come out of the idle pool. Allow slack for requests of the
	// first wave racing each other for it, but the stdlib default's behavior
	// (re-dialing most of every wave, ~30 dials here) must stay far out of
	// reach.
	if d := dials.Load(); d > concurrency+2 {
		t.Fatalf("%d dials for %d requests at concurrency %d — idle connections are not being reused", d, total, concurrency)
	}
	if r := reused.Load(); r < total-int64(concurrency)-2 {
		t.Fatalf("only %d of %d requests reused a connection", r, total)
	}
}

// TestTransportKnobs pins the tuning contract: per-host idle capacity
// follows the requested concurrency (floored at 2), and compression is
// disabled exactly on the wire plane.
func TestTransportKnobs(t *testing.T) {
	tr := DefaultTransport(64, true)
	if tr.MaxIdleConnsPerHost != 64 {
		t.Fatalf("MaxIdleConnsPerHost=%d, want 64", tr.MaxIdleConnsPerHost)
	}
	if !tr.DisableCompression {
		t.Fatal("wire transport must disable transparent compression")
	}
	if tr := DefaultTransport(0, false); tr.MaxIdleConnsPerHost != 2 || tr.DisableCompression {
		t.Fatalf("floor transport misconfigured: perHost=%d compressionDisabled=%v", tr.MaxIdleConnsPerHost, tr.DisableCompression)
	}
	// The zero-config client picks the tuned transport up.
	opts := ClientOptions{}.withDefaults()
	ht, ok := opts.HTTPClient.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("default client transport is %T, want *http.Transport", opts.HTTPClient.Transport)
	}
	if ht.MaxIdleConnsPerHost < 8 || ht.DisableCompression {
		t.Fatalf("default JSON client transport not load-ready: perHost=%d compressionDisabled=%v", ht.MaxIdleConnsPerHost, ht.DisableCompression)
	}
}
