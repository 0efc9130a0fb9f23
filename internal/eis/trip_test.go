package eis

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"ecocharge/internal/geo"
)

func TestTripOfferingEndToEnd(t *testing.T) {
	_, client, env := testServer(t)
	b := env.Graph.Bounds()
	req := TripOfferingRequest{
		Waypoints: []LatLon{
			{Lat: b.Min.Lat + 0.005, Lon: b.Min.Lon + 0.005},
			{Lat: b.Center().Lat, Lon: b.Center().Lon},
			{Lat: b.Max.Lat - 0.005, Lon: b.Max.Lon - 0.005},
		},
		Depart:      fixedNow,
		K:           3,
		RadiusM:     8000,
		SegmentLenM: 2000,
	}
	resp, err := client.TripOffering(context.Background(), req)
	if err != nil {
		t.Fatalf("TripOffering: %v", err)
	}
	if resp.TripLengthM <= 0 {
		t.Fatal("zero trip length")
	}
	if len(resp.Segments) < 2 {
		t.Fatalf("got %d segments for a cross-town trip", len(resp.Segments))
	}
	if len(resp.SplitPoints) == 0 || resp.SplitPoints[0] != 0 {
		t.Fatalf("split points = %v, must start at segment 0", resp.SplitPoints)
	}
	var prevETA time.Time
	for i, seg := range resp.Segments {
		if seg.SegmentIndex != i {
			t.Fatalf("segment %d has index %d", i, seg.SegmentIndex)
		}
		if len(seg.Entries) == 0 {
			t.Fatalf("segment %d empty", i)
		}
		if seg.ETA.Before(prevETA) {
			t.Fatalf("segment %d ETA out of order", i)
		}
		prevETA = seg.ETA
		anchor := geo.Point{Lat: seg.Anchor.Lat, Lon: seg.Anchor.Lon}
		if !b.Buffer(500).Contains(anchor) {
			t.Fatalf("segment %d anchor outside network: %v", i, anchor)
		}
	}
	// The dynamic cache must serve some later segments.
	adapted := 0
	for _, seg := range resp.Segments {
		if seg.Adapted {
			adapted++
		}
	}
	if adapted == 0 && len(resp.Segments) > 2 {
		t.Error("no segment was served from the dynamic cache")
	}
}

func TestTripOfferingValidation(t *testing.T) {
	ts, _, _ := testServer(t)
	cases := map[string]string{
		"one waypoint":  `{"waypoints":[{"lat":53.05,"lon":8.05}]}`,
		"bad waypoint":  `{"waypoints":[{"lat":95,"lon":8},{"lat":53.05,"lon":8.05}]}`,
		"bad weights":   `{"waypoints":[{"lat":53.02,"lon":8.02},{"lat":53.05,"lon":8.05}],"weights":{"l":-1,"a":2,"d":0}}`,
		"same waypoint": `{"waypoints":[{"lat":53.02,"lon":8.02},{"lat":53.02,"lon":8.02}]}`,
		"garbage":       `{{{`,
	}
	for name, body := range cases {
		resp, err := http.Post(ts.URL+"/api/v1/offering/trip", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/api/v1/offering/trip")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET trip offering: status %d", resp.StatusCode)
	}
}

func TestTripOfferingMatchesLocalSplitList(t *testing.T) {
	_, client, env := testServer(t)
	b := env.Graph.Bounds()
	req := TripOfferingRequest{
		Waypoints: []LatLon{
			{Lat: b.Min.Lat + 0.01, Lon: b.Min.Lon + 0.01},
			{Lat: b.Max.Lat - 0.01, Lon: b.Max.Lon - 0.01},
		},
		Depart: fixedNow, K: 3, RadiusM: 8000, SegmentLenM: 2000,
	}
	resp, err := client.TripOffering(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Split points are strictly increasing segment indexes.
	for i := 1; i < len(resp.SplitPoints); i++ {
		if resp.SplitPoints[i] <= resp.SplitPoints[i-1] {
			t.Fatalf("split points not increasing: %v", resp.SplitPoints)
		}
	}
	// Consecutive segments flagged by a split point really differ.
	bySeg := make(map[int][]int64)
	for _, seg := range resp.Segments {
		ids := make([]int64, len(seg.Entries))
		for i, e := range seg.Entries {
			ids[i] = e.ChargerID
		}
		bySeg[seg.SegmentIndex] = ids
	}
	for _, sp := range resp.SplitPoints[1:] {
		if slices.Equal(bySeg[sp], bySeg[sp-1]) {
			t.Errorf("split point at %d but sets equal", sp)
		}
	}
}

// expiresAfter is a context whose deadline passes after it was asked about
// it n times: a trip that is cut off mid-route, without a clock.
type expiresAfter struct {
	context.Context
	n int
}

func (c *expiresAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestTripHonoursItsDeadline: a trip whose context has expired is answered
// like an /offering whose wait ran out — 503 with Retry-After — and stops
// routing there: no leg past the one the deadline fell in is searched, and
// nothing is ranked.
func TestTripHonoursItsDeadline(t *testing.T) {
	env := testEnv(t)
	b := env.Graph.Bounds()
	var req TripOfferingRequest
	for i := 0; i < 5; i++ {
		f := float64(i) / 4
		req.Waypoints = append(req.Waypoints, LatLon{
			Lat: b.Min.Lat + f*(b.Max.Lat-b.Min.Lat), Lon: b.Min.Lon + f*(b.Max.Lon-b.Min.Lon),
		})
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, tc := range map[string]struct {
		ctx      context.Context
		timeout  time.Duration
		searches uint64
	}{
		"expired on arrival": {cancelled, 0, 0},
		// Asked before each of waypoints 0 and 1, expired before waypoint 2:
		// one of the four legs was routed. The deadline is off so that the
		// handler asks this context, not one derived from it.
		"expires on the second leg": {&expiresAfter{context.Background(), 2}, -1, 1},
	} {
		h := NewServer(env, ServerOptions{RequestTimeout: tc.timeout, ShedRetryAfter: 3 * time.Second}).Handler()
		searches := obsCounter("roadnet_pool_acquires_total")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, APIVersion+"/offering/trip", bytes.NewReader(body)).WithContext(tc.ctx))
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "3" {
			t.Errorf("%s: answered %d (Retry-After %q) %s, want 503 after 3 s", name, rec.Code, rec.Header().Get("Retry-After"), rec.Body)
		}
		if n := obsCounter("roadnet_pool_acquires_total") - searches; n != tc.searches {
			t.Errorf("%s: %d road searches ran, want %d", name, n, tc.searches)
		}
	}
}
