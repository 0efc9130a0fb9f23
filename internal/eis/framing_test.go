package eis

// Every answer a fleet gateway can read of a shard states its length: the
// gateway's shard hop reads no other framing (internal/fleet/transport.go).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"ecocharge/internal/wire"
)

// TestEveryAnswerStatesItsLength sends a shard, wrapped in its Middleware,
// every kind of request on both planes — the read endpoints, an offering
// computed, hit and joined as a single-flight follower, a trip, a 400, a
// 405, a shed 503, a recovered panic's 500 and the mux's 404 — over real
// HTTP, and fails on an answer without a Content-Length, or with a
// Transfer-Encoding.
func TestEveryAnswerStatesItsLength(t *testing.T) {
	env := testEnv(t)
	g := &gate{entered: make(chan struct{}), open: make(chan struct{})}
	gated := *env
	gated.Faults = g
	srv := NewServer(&gated, ServerOptions{Clock: func() time.Time { return fixedNow }})
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("/panic", func(http.ResponseWriter, *http.Request) { panic("a handler bug") })
	// The leader and the two followers of the gated flight hold every slot.
	mw := &Middleware{MaxInFlight: 3}
	ts := httptest.NewServer(mw.Wrap(mux))
	defer ts.Close()
	// Deferred after Close, so run before it: a test that fails with the
	// flight held still lets it finish.
	release := sync.OnceFunc(func() { close(g.open) })
	defer release()

	type plane struct{ name, contentType string }
	planes := []plane{{"wire", wire.ContentType}, {"json", ContentTypeJSON}}
	// do sends one request on the plane and checks its answer's framing and
	// status. It runs on the flight's goroutines too, so it reports with
	// t.Errorf.
	do := func(p plane, method, path string, body []byte, want int) {
		t.Helper()
		r, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		r.Header.Set("Accept", p.contentType)
		if body != nil {
			r.Header.Set("Content-Type", p.contentType)
		}
		resp, err := ts.Client().Do(r)
		if err != nil {
			t.Errorf("%s %s %s: %v", p.name, method, path, err)
			return
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Errorf("%s %s %s: reading the body: %v", p.name, method, path, err)
			return
		}
		if resp.StatusCode != want {
			t.Errorf("%s %s %s: status %d, want %d: %.200s", p.name, method, path, resp.StatusCode, want, got)
		}
		if resp.ContentLength < 0 || len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(got)) {
			t.Errorf("%s %s %s: Content-Length %d, Transfer-Encoding %v, a body of %d bytes",
				p.name, method, path, resp.ContentLength, resp.TransferEncoding, len(got))
		}
	}
	anchor := env.Chargers.All()[0].P
	offering := func(p plane, k int) []byte {
		req := OfferingRequest{Lat: anchor.Lat, Lon: anchor.Lon, K: k, Now: fixedNow}
		if p.contentType == wire.ContentType {
			return wire.AppendOfferingRequest(nil, &req)
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// A leader held inside its ranking, a follower on each plane, and a
	// request past the three slots they hold, which is shed.
	joined := met.flightCoalesced.Value()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		do(planes[0], http.MethodPost, APIVersion+"/offering", offering(planes[0], 3), http.StatusOK)
	}()
	<-g.entered
	for _, p := range planes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(p, http.MethodPost, APIVersion+"/offering", offering(p, 3), http.StatusOK)
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); met.flightCoalesced.Value() < joined+uint64(len(planes)); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the followers never joined the flight")
		}
	}
	for _, p := range planes {
		do(p, http.MethodGet, "/healthz", nil, http.StatusServiceUnavailable)
	}
	release()
	wg.Wait()

	id := strconv.FormatInt(env.Chargers.All()[0].ID, 10)
	at := fixedNow.Format(time.RFC3339)
	near := fmt.Sprintf("%s/chargers?lat=%v&lon=%v&radius_m=3000", APIVersion, anchor.Lat, anchor.Lon)
	gets := map[string]int{
		"/healthz": http.StatusOK,
		near:       http.StatusOK,
		APIVersion + "/weather?charger=" + id + "&t=" + at:      http.StatusOK,
		APIVersion + "/availability?charger=" + id + "&t=" + at: http.StatusOK,
		APIVersion + "/traffic?t=" + at:                         http.StatusOK,
		APIVersion + "/chargers?lat=x":                          http.StatusBadRequest,
		APIVersion + "/offering":                                http.StatusMethodNotAllowed,
		"/no/such/path":                                         http.StatusNotFound,
		"/panic":                                                http.StatusInternalServerError,
	}
	trip := TripOfferingRequest{
		Waypoints: []LatLon{{Lat: anchor.Lat, Lon: anchor.Lon}, {Lat: anchor.Lat + 0.02, Lon: anchor.Lon + 0.02}},
		Depart:    fixedNow, K: 3, RadiusM: 8000, SegmentLenM: 2000,
	}
	for i, p := range planes {
		for path, want := range gets {
			do(p, http.MethodGet, path, nil, want)
		}
		hits, leads := met.rescacheHits.Value(), met.flightLeads.Value()
		do(p, http.MethodPost, APIVersion+"/offering", offering(p, 3), http.StatusOK)
		do(p, http.MethodPost, APIVersion+"/offering", offering(p, 4+i), http.StatusOK)
		if met.rescacheHits.Value() != hits+1 || met.flightLeads.Value() != leads+1 {
			t.Fatalf("%s: %d hits and %d rankings, want one of each", p.name, met.rescacheHits.Value()-hits, met.flightLeads.Value()-leads)
		}
		do(p, http.MethodPost, APIVersion+"/offering", []byte("{"), http.StatusBadRequest)
		body, err := json.Marshal(trip)
		if err != nil {
			t.Fatal(err)
		}
		if p.contentType == wire.ContentType {
			body = wire.AppendTripRequest(nil, &trip)
		}
		do(p, http.MethodPost, APIVersion+"/offering/trip", body, http.StatusOK)
	}
}
