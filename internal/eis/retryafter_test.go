package eis

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestParseRetryAfter covers both RFC 7231 header forms — delay-seconds and
// HTTP-date — plus the cap and the garbage cases.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		v    string
		want time.Duration
		ok   bool
	}{
		{"empty", "", 0, false},
		{"seconds", "7", 7 * time.Second, true},
		{"zero seconds", "0", 0, false},
		{"negative seconds", "-3", 0, false},
		{"seconds capped", "3600", maxRetryAfter, true},
		{"http date", now.Add(9 * time.Second).UTC().Format(http.TimeFormat), 9 * time.Second, true},
		{"http date capped", now.Add(10 * time.Minute).UTC().Format(http.TimeFormat), maxRetryAfter, true},
		{"http date past", now.Add(-time.Minute).UTC().Format(http.TimeFormat), 0, false},
		{"rfc850 date", now.Add(12 * time.Second).UTC().Format("Monday, 02-Jan-06 15:04:05 GMT"), 12 * time.Second, true},
		{"asctime date", now.Add(5 * time.Second).UTC().Format(time.ANSIC), 5 * time.Second, true},
		{"garbage", "soon", 0, false},
		{"float seconds", "1.5", 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := ParseRetryAfter(tc.v, now)
			if ok != tc.ok || got != tc.want {
				t.Fatalf("ParseRetryAfter(%q) = (%v, %v), want (%v, %v)", tc.v, got, ok, tc.want, tc.ok)
			}
		})
	}
}

// TestClientHonorsHTTPDateRetryAfter drives the retry loop against a server
// answering 503 with an HTTP-date Retry-After and asserts the recorded retry
// delay matches the date (capped), which the old integer-only parser ignored.
func TestClientHonorsHTTPDateRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits == 1 {
			w.Header().Set("Retry-After", now.Add(4*time.Second).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"at":"2026-08-08T12:00:00Z","multiplier":{}}`))
	}))
	defer srv.Close()

	var slept []time.Duration
	c := NewClientOpts(srv.URL, ClientOptions{
		HTTPClient: srv.Client(),
		Clock:      func() time.Time { return now },
		Sleep:      func(d time.Duration) { slept = append(slept, d) },
	})
	if _, err := c.Traffic(context.Background(), now); err != nil {
		t.Fatalf("Traffic after 503: %v", err)
	}
	if hits != 2 {
		t.Fatalf("server saw %d requests, want 2", hits)
	}
	if len(slept) != 1 || slept[0] != 4*time.Second {
		t.Fatalf("retry delays %v, want [4s] from the HTTP-date header", slept)
	}
}
