package eis

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ecocharge/internal/obs"
)

// TestTracePropagationAcrossRetries proves the span context survives the
// client→server round trip through real HTTP headers, retries included:
// a request that fails twice before succeeding must produce ONE trace
// holding the client root span, one child span per attempt, and a server
// span parented on the attempt that reached the handler.
func TestTracePropagationAcrossRetries(t *testing.T) {
	env := testEnv(t)
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf, obs.TracerOptions{})

	srv := NewServer(env, ServerOptions{
		Clock:  func() time.Time { return fixedNow },
		Tracer: tr,
	})
	inner := srv.Handler()
	// The first two exchanges die at the transport edge with a retryable
	// 503 — before the instrumented routes, as a dying proxy would — so
	// only the third attempt produces a server span.
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/traffic") && calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	client := NewClientOpts(ts.URL, ClientOptions{
		HTTPClient: ts.Client(),
		Sleep:      func(time.Duration) {}, // retries must not slow the suite
		Tracer:     tr,
	})
	if _, err := client.Traffic(context.Background(), fixedNow); err != nil {
		t.Fatalf("Traffic after retries: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d exchanges, want 3 (two failures + success)", got)
	}

	recs, err := obs.ParseSpanRecords(buf.Bytes())
	if err != nil {
		t.Fatalf("ParseSpanRecords: %v", err)
	}
	var root, server obs.SpanRecord
	var attempts []obs.SpanRecord
	for _, r := range recs {
		switch {
		case strings.HasPrefix(r.Name, "eis.client "):
			root = r
		case r.Name == "eis.attempt":
			attempts = append(attempts, r)
		case r.Name == "eis.traffic":
			server = r
		default:
			t.Fatalf("unexpected span %q", r.Name)
		}
	}
	if root.Span == "" || root.Parent != "" {
		t.Fatalf("client root span malformed: %+v", root)
	}
	if len(attempts) != 3 {
		t.Fatalf("exported %d attempt spans, want 3", len(attempts))
	}
	if server.Span == "" {
		t.Fatal("no server span exported")
	}
	// One trace end to end.
	for _, r := range recs {
		if r.Trace != root.Trace {
			t.Fatalf("span %q escaped the trace: %s vs %s", r.Name, r.Trace, root.Trace)
		}
	}
	// Every attempt hangs off the root, and the server span hangs off the
	// attempt that got through (the last one).
	for i, a := range attempts {
		if a.Parent != root.Span {
			t.Fatalf("attempt %d parent = %q, want root %q", i, a.Parent, root.Span)
		}
	}
	if want := attempts[len(attempts)-1].Span; server.Parent != want {
		t.Fatalf("server span parent = %q, want the successful attempt %q", server.Parent, want)
	}
}

// TestMetricsAndVarsEndpoints pins the observability surface of the EIS:
// /metrics serves the text exposition with the per-endpoint histograms,
// /debug/vars serves the JSON snapshot.
func TestMetricsAndVarsEndpoints(t *testing.T) {
	ts, client, _ := testServer(t)
	if _, err := client.Traffic(context.Background(), fixedNow); err != nil {
		t.Fatalf("Traffic: %v", err)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE eis_http_seconds_traffic histogram",
		"eis_http_seconds_traffic_count",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	resp2, err := ts.Client().Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if ct := resp2.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/debug/vars content type = %q", ct)
	}
	if !strings.Contains(string(body2), "eis_http_seconds_traffic_count") {
		t.Fatalf("/debug/vars missing the traffic histogram:\n%s", body2)
	}
}
