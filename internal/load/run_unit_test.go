package load

import (
	"net/http"
	"testing"
	"time"
)

func TestResultRates(t *testing.T) {
	r := Result{Valid: 50, Shed: 25, Sent: 100, Elapsed: 2 * time.Second}
	if got := r.Goodput(); got != 25 {
		t.Fatalf("Goodput=%v, want 25", got)
	}
	var zero Result
	if zero.Goodput() != 0 {
		t.Fatalf("zero-valued result must rate 0, got %v", zero.Goodput())
	}
}

func TestNewRunnerValidation(t *testing.T) {
	if _, err := NewRunner(Options{}); err == nil {
		t.Fatal("missing BaseURL accepted")
	}
	if _, err := NewRunner(Options{BaseURL: "http://x", Plane: Plane("carrier-pigeon")}); err == nil {
		t.Fatal("unknown plane accepted")
	}
	r, err := NewRunner(Options{BaseURL: "http://x"})
	if err != nil {
		t.Fatal(err)
	}
	o := r.opts
	if o.Plane != PlaneJSON || o.Timeout != 10*time.Second || o.Workers != 64 {
		t.Fatalf("defaults not applied: %+v", o)
	}
	if tr, ok := r.client.Transport.(*http.Transport); !ok || tr.DisableCompression || r.client.Timeout != o.Timeout {
		t.Fatalf("JSON-plane client misconfigured: %#v", r.client)
	}
}

func TestFmtLat(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Microsecond:  "500µs",
		2500 * time.Microsecond: "2.5ms",
		1500 * time.Millisecond: "1.50s",
	}
	for d, want := range cases {
		if got := fmtLat(d); got != want {
			t.Fatalf("fmtLat(%v)=%q, want %q", d, got, want)
		}
	}
}
