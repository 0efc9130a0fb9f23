package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHandlers exercises the HTTP faces of the registry: /metrics text
// exposition and the /debug/vars JSON snapshot, both on a fresh registry
// and on the process-wide default.
func TestHandlers(t *testing.T) {
	r := NewRegistry()
	r.Counter("expo_test_requests_total").Add(3)
	g := r.Gauge("expo_test_inflight")
	g.Set(5)
	g.Add(-2)
	r.Histogram("expo_test_latency_seconds").Observe(42 * time.Millisecond)

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"expo_test_requests_total 3",
		"expo_test_inflight 3",
		"# TYPE expo_test_latency_seconds histogram",
		"expo_test_latency_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition lacks %q:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	r.VarsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("vars Content-Type %q", ct)
	}
	vars := rec.Body.String()
	for _, want := range []string{`"expo_test_requests_total": 3`, `"expo_test_latency_seconds_count": 1`} {
		if !strings.Contains(vars, want) {
			t.Fatalf("vars snapshot lacks %q:\n%s", want, vars)
		}
	}

	// Default is one stable process-wide registry.
	if Default() == nil || Default() != Default() {
		t.Fatal("Default registry not stable")
	}

	// Nil receivers are the disabled plane: no panics, no output.
	var b strings.Builder
	if err := (*Registry)(nil).WriteText(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry wrote %q (%v)", b.String(), err)
	}
	var nilG *Gauge
	nilG.Set(1)
	nilG.Add(1)
	if nilG.Value() != 0 {
		t.Fatal("nil gauge held a value")
	}
}
