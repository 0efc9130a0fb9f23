package eis

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"time"
)

// Middleware wraps the EIS handler with production hygiene: panic
// recovery, optional request logging, and a hard cap on in-flight
// requests (the paper's EIS serves a whole fleet; an overloaded Mode 2
// server should shed load instead of queueing unboundedly).
type Middleware struct {
	// MaxInFlight caps concurrent requests; 0 disables shedding.
	MaxInFlight int
	// Logger receives one line per request; nil disables logging.
	Logger *log.Logger

	slots chan struct{}
}

// Wrap applies the middleware to h.
func (m *Middleware) Wrap(h http.Handler) http.Handler {
	if m.MaxInFlight > 0 {
		m.slots = make(chan struct{}, m.MaxInFlight)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if m.slots != nil {
			select {
			case m.slots <- struct{}{}:
				defer func() { <-m.slots }()
			default:
				WriteError(w, http.StatusServiceUnavailable, "server overloaded")
				if m.Logger != nil {
					m.Logger.Printf("eis: shed %s %s", r.Method, r.URL.Path)
				}
				return
			}
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				if m.Logger != nil {
					m.Logger.Printf("eis: panic on %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				}
				// Headers may already be gone; best effort.
				WriteError(sw, http.StatusInternalServerError, "internal error")
				return
			}
			if m.Logger != nil {
				m.Logger.Printf("eis: %s %s -> %d (%s)", r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Millisecond))
			}
		}()
		h.ServeHTTP(sw, r)
	})
}

// statusWriter records the response code for the log line.
type statusWriter struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wroteHeader {
		sw.status = code
		sw.wroteHeader = true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wroteHeader = true
	return sw.ResponseWriter.Write(b)
}

// NewHTTPServer is the one http.Server configuration every EIS, gateway and
// in-process fleet serves with. The connection timeouts bound slow or
// stalled clients so one bad peer cannot hold a handler goroutine forever
// (slowloris protection).
func NewHTTPServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// Serve serves handler on addr until ctx is cancelled (a shutdown signal),
// then drains in-flight requests for up to drain before forcing connections
// closed; name opens its log lines. It is the lifecycle of cmd/eis and
// cmd/gateway.
func Serve(ctx context.Context, name, addr string, handler http.Handler, drain time.Duration, logger *log.Logger) error {
	httpSrv := NewHTTPServer(handler)
	httpSrv.Addr = addr
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		// The listener died on its own (port in use, etc.).
		return err
	case <-ctx.Done():
	}

	logger.Printf("%s: shutdown signal received, draining for up to %v", name, drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("draining: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("%s: drained, bye", name)
	return nil
}
