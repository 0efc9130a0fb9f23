package fleet

// Trip answers on the binary plane inside the fleet: whichever way the
// shards' answers travel — all binary, all JSON, or one shard that does not
// know the codec — the client's body is the same bytes, a dead shard
// degrades the same way, a shard that answers for another trip is a 502, and
// trips served side by side share none of the gateway's pooled decode and
// merge storage.

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ecocharge/internal/cknn"
	"ecocharge/internal/eis"
	"ecocharge/internal/experiment"
	"ecocharge/internal/geo"
)

// ignoringAccept is a shard that predates a response kind: whatever the
// gateway asks for, it answers JSON.
func ignoringAccept(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept")
		h.ServeHTTP(w, r)
	})
}

// newJSONFleet is a graph-free fleet over envs whose shards all ignore
// Accept: every answer the gateway decodes is JSON.
func newJSONFleet(t *testing.T, envs []*cknn.Env) *travelFleet {
	t.Helper()
	f := newFleetOver(t, envs, Options{})
	for i, sh := range f.shards {
		sh.set(ignoringAccept(eis.NewServer(envs[i], eis.ServerOptions{}).Handler()))
	}
	return f
}

// shardDown is a shard that cannot serve: the gateway counts it dead for the
// request.
var shardDown = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusServiceUnavailable) })

// tripDecodes reads how many shard trip answers the gateway decoded on each
// plane, and how long the binary ones took in all.
func tripDecodes() (wireN, jsonN uint64, wireSec float64) {
	return met.decodeWire.Count(), met.decodeJSON.Count(), met.decodeWire.Sum()
}

// TestFleetTripPlanesAgree sends the benchmark's trips, on the benchmark's
// world, through a fleet whose shards answer binary, one whose shards answer
// JSON, and a mixed one (shard 1 ignores Accept): the client's bodies are
// byte-identical, and the decode histograms show each answer read on the
// plane it came on, in measurable time.
func TestFleetTripPlanesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the Oldenburg scenario")
	}
	sc, err := experiment.BuildScenario("Oldenburg", 0.001, 42)
	if err != nil {
		t.Fatal(err)
	}
	world := sc.Env
	wireFleet := newTravelFleet(t, shardEnvs(t, world, 3), world)
	jsonFleet := newJSONFleet(t, shardEnvs(t, world, 3))
	mixedEnvs := shardEnvs(t, world, 3)
	mixed := newTravelFleet(t, mixedEnvs, world)
	mixed.shards[1].set(ignoringAccept(eis.NewServer(mixedEnvs[1], eis.ServerOptions{}).Handler()))

	for i, trip := range routedTrips(t, world.Graph, 17, 6, 40, sc.Start) {
		body := tripRequest(world.Graph, trip, 5, 50000, 0, 4000)
		w0, j0, sec0 := tripDecodes()
		status, want, header, _ := jsonFleet.postTrip(t, body)
		w1, j1, _ := tripDecodes()
		if status != http.StatusOK || header.Get(degradedHeader) != "" || w1 != w0 || j1 != j0+3 {
			t.Fatalf("trip %d, JSON shards: %d, degraded %q, %d binary and %d JSON decodes: %.200s", i, status, header.Get(degradedHeader), w1-w0, j1-j0, want)
		}
		status, got, _, counts := wireFleet.postTrip(t, body)
		w2, j2, sec2 := tripDecodes()
		if status != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("trip %d: binary shards give the client another body\nwire: %d %.300s\njson: %.300s", i, status, got, want)
		}
		if w2 != w1+3 || j2 != j1 || !(sec2 > sec0) || counts.supplied == 0 || counts.rejected != 0 {
			t.Fatalf("trip %d, binary shards: %d binary and %d JSON decodes in %v s, %d blocks sent, %d rejected", i, w2-w1, j2-j1, sec2-sec0, counts.supplied, counts.rejected)
		}
		status, got, _, _ = mixed.postTrip(t, body)
		w3, j3, _ := tripDecodes()
		if status != http.StatusOK || !bytes.Equal(got, want) || w3 != w2+2 || j3 != j2+1 {
			t.Fatalf("trip %d, shard 1 answering JSON: %d after %d binary and %d JSON decodes\nmixed: %.300s\njson:  %.300s", i, status, w3-w2, j3-j2, got, want)
		}
	}
}

// TestFleetTripDeadShardOnBothPlanes: with shard 1 down, binary and JSON
// shards lead to the same degraded body — the dead shard's entries
// synthesized into tables selected over decoded entry references.
func TestFleetTripDeadShardOnBothPlanes(t *testing.T) {
	world := testEnv(t)
	wireFleet := newTravelFleet(t, shardEnvs(t, world, 3), world)
	jsonFleet := newJSONFleet(t, shardEnvs(t, world, 3))
	wireFleet.shards[1].set(shardDown)
	jsonFleet.shards[1].set(shardDown)
	for i, trip := range routedTrips(t, world.Graph, 21, 4, 20, fixedNow) {
		body := tripRequest(world.Graph, trip, 4+i, 6000, 2000, 1500)
		gs, got, gh, _ := wireFleet.postTrip(t, body)
		ws, want, wh, _ := jsonFleet.postTrip(t, body)
		if gs != http.StatusOK || ws != http.StatusOK || !bytes.Equal(got, want) || gh.Get(degradedHeader) != "1" || wh.Get(degradedHeader) != "1" {
			t.Fatalf("trip %d with shard 1 down: the planes disagree\nwire: %d %q %.300s\njson: %d %q %.300s",
				i, gs, gh.Get(degradedHeader), got, ws, wh.Get(degradedHeader), want)
		}
		if !bytes.Contains(got, []byte(`"degraded":`)) {
			t.Fatalf("trip %d: no entry of the dead shard was synthesized: %.300s", i, got)
		}
	}
}

// TestFleetTripForeignShard: a shard that answers for another trip — here
// shard 2 is handed different waypoints — is a 502 from the merge, not a
// table stitched from two trips.
func TestFleetTripForeignShard(t *testing.T) {
	world := testEnv(t)
	trips := routedTrips(t, world.Graph, 8, 2, 18, fixedNow)
	asked := tripRequest(world.Graph, trips[0], 3, 6000, 2000, 1500)
	other := tripRequest(world.Graph, trips[1], 3, 6000, 2000, 1500)
	envs := shardEnvs(t, world, 3)
	f := newFleetOver(t, envs, Options{})
	honest := eis.NewServer(envs[2], eis.ServerOptions{}).Handler()
	f.shards[2].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/offering/trip") {
			r = r.Clone(r.Context())
			r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(other)), int64(len(other))
		}
		honest.ServeHTTP(w, r)
	}))
	status, got, _, _ := f.postTrip(t, asked)
	if status != http.StatusBadGateway || !bytes.Contains(got, []byte("disagree")) {
		t.Fatalf("a shard answering for another trip got %d %.300s, want a 502 from the merge", status, got)
	}
	f.shards[2].set(honest)
	if status, got, _, _ = f.postTrip(t, asked); status != http.StatusOK {
		t.Fatalf("the honest fleet answers %d %.300s", status, got)
	}
}

// TestFleetTripConcurrentSharesNoStorage: trips of different lengths, table
// sizes and radii served side by side by a mixed-plane fleet, with shard 2
// down for good measure, each get the bytes a JSON fleet gives them one at a
// time — the pooled per-shard trip storage, the selection and the merged
// trip of one request never show in another's answer.
func TestFleetTripConcurrentSharesNoStorage(t *testing.T) {
	world := testEnv(t)
	envs := shardEnvs(t, world, 4)
	f := newTravelFleet(t, envs, world)
	f.shards[1].set(ignoringAccept(eis.NewServer(envs[1], eis.ServerOptions{}).Handler()))
	oracle := newJSONFleet(t, shardEnvs(t, world, 4))
	f.shards[2].set(shardDown)
	oracle.shards[2].set(shardDown)
	var bodies, want [][]byte
	for i, trip := range routedTrips(t, world.Graph, 13, 8, 12, fixedNow) {
		body := tripRequest(world.Graph, trip, 1+i%5, []float64{1500, 8000, 50000}[i%3], []float64{1, 1500, 0}[i%3], []float64{700, 1200, 4000}[i%3])
		status, answer, _, _ := oracle.postTrip(t, body)
		if status != http.StatusOK {
			t.Fatalf("trip %d: %d %.200s", i, status, answer)
		}
		bodies, want = append(bodies, body), append(want, answer)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range bodies {
					j := (i + 3*w) % len(bodies)
					resp, err := http.Post(f.url+eis.APIVersion+"/offering/trip", "application/json", bytes.NewReader(bodies[j]))
					if err != nil {
						t.Error(err)
						return
					}
					var got bytes.Buffer
					_, err = got.ReadFrom(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got.Bytes(), want[j]) {
						t.Errorf("trip %d, sent beside others: %d %v\ngot  %.300s\nwant %.300s", j, resp.StatusCode, err, got.Bytes(), want[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// mergeFixture is a fan-out over n shards that all answered 200 with the
// same two-segment trip.
func mergeFixture(n int) *fanout {
	fo := &fanout{results: make([]shardResult, n), trips: make([]eis.TripOfferingResponse, n)}
	for i := range fo.trips {
		fo.results[i] = shardResult{status: http.StatusOK}
		fo.trips[i] = eis.TripOfferingResponse{TripLengthM: 5200, SplitPoints: []int{0}}
		for s := 0; s < 2; s++ {
			fo.trips[i].Segments = append(fo.trips[i].Segments, eis.SegmentOffering{
				SegmentIndex: s,
				Anchor:       eis.LatLon{Lat: 53.01 + float64(s)/100, Lon: 8.02},
				ETA:          fixedNow.Add(time.Duration(s) * 4 * time.Minute),
				LengthM:      2600,
				Entries: []eis.OfferingEntry{{
					ChargerID: int64(10*i + s), SC: eis.IntervalJSON{Min: 0.2, Max: 0.5 + float64(i)/10},
				}},
			})
		}
	}
	return fo
}

// TestMergeTripsRefusesForeignSkeleton: the merge copies a segment's
// skeleton from the first live shard, so it holds every other shard's to it
// bit for bit; a difference in any one field is an error (the gateway's 502),
// and the same trip from every shard merges.
func TestMergeTripsRefusesForeignSkeleton(t *testing.T) {
	fo := mergeFixture(3)
	if err := fo.mergeTrips(nil, 2); err != nil {
		t.Fatalf("three answers for one trip: %v", err)
	}
	if m := &fo.tripMerged; len(m.Segments) != 2 || len(m.Segments[1].Entries) != 2 || m.Segments[1].Entries[0].ChargerID != 21 || len(m.SplitPoints) != 2 {
		t.Fatalf("merged trip %+v", m)
	}
	cest := time.FixedZone("", 2*3600)
	for name, tamper := range map[string]func(*eis.TripOfferingResponse){
		"trip length":   func(r *eis.TripOfferingResponse) { r.TripLengthM += 1e-9 },
		"segment count": func(r *eis.TripOfferingResponse) { r.Segments = r.Segments[:1] },
		"segment index": func(r *eis.TripOfferingResponse) { r.Segments[1].SegmentIndex = 2 },
		"anchor lat":    func(r *eis.TripOfferingResponse) { r.Segments[1].Anchor.Lat += 1e-12 },
		"anchor lon":    func(r *eis.TripOfferingResponse) { r.Segments[0].Anchor.Lon = -r.Segments[0].Anchor.Lon },
		"ETA":           func(r *eis.TripOfferingResponse) { r.Segments[1].ETA = r.Segments[1].ETA.Add(time.Nanosecond) },
		"ETA's zone":    func(r *eis.TripOfferingResponse) { r.Segments[0].ETA = r.Segments[0].ETA.In(cest) },
		"length":        func(r *eis.TripOfferingResponse) { r.Segments[0].LengthM = 2600.0000000001 },
	} {
		for shard := 1; shard < 3; shard++ {
			fo := mergeFixture(3)
			tamper(&fo.trips[shard])
			if err := fo.mergeTrips(nil, 2); err == nil {
				t.Errorf("%s of shard %d's answer differs and the merge went through", name, shard)
			}
		}
	}
	// A dead shard's answer is not read, whatever its storage still holds.
	fo = mergeFixture(3)
	fo.trips[1] = eis.TripOfferingResponse{TripLengthM: 1}
	fo.results[1] = shardResult{err: context.DeadlineExceeded}
	synth := func(geo.Point) []eis.OfferingEntry { return []eis.OfferingEntry{{ChargerID: 99, SC: ignoranceWire()}} }
	if err := fo.mergeTrips(synth, 3); err != nil || len(fo.tripMerged.Segments[0].Entries) != 3 {
		t.Fatalf("two live shards and a synthesized entry: %v, %+v", err, fo.tripMerged)
	}
	fo.results[0], fo.results[2] = fo.results[1], fo.results[1]
	if err := fo.mergeTrips(nil, 3); err == nil {
		t.Fatal("a merge of no live answer went through")
	}
}

// TestPutFanoutCapsTripStorage: a released fan-out keeps the storage of the
// trips it decoded and merged for the next one, but not an outsized trip's.
func TestPutFanoutCapsTripStorage(t *testing.T) {
	g := &Gateway{}
	fo := mergeFixture(3)
	fo.calls, fo.spans = make([]call, 3), make([]span, 3)
	big := &fo.trips[1]
	for len(big.Segments) <= maxPooledTripEntries/4 {
		big.Segments = append(big.Segments, eis.SegmentOffering{Entries: make([]eis.OfferingEntry, 4)})
	}
	fo.trips[2].Segments = make([]eis.SegmentOffering, 2, maxPooledTripEntries+1) // no entries, but segments to hold
	fo.top = make([]eis.OfferingEntry, 0, 8)
	g.putFanout(fo)
	if cap(fo.trips[0].Segments) == 0 || cap(fo.trips[0].Segments[0].Entries) == 0 || fo.top == nil {
		t.Error("an ordinary trip's storage was dropped")
	}
	if fo.trips[1].Segments != nil || fo.trips[2].Segments != nil {
		t.Errorf("outsized trips kept %d and %d segments of storage", cap(fo.trips[1].Segments), cap(fo.trips[2].Segments))
	}
	fo.top, fo.tripMerged.Segments = make([]eis.OfferingEntry, 0, maxPooledTripEntries+1), make([]eis.SegmentOffering, 3)
	g.putFanout(fo)
	if fo.top != nil || fo.tripMerged.Segments != nil {
		t.Error("an outsized merged trip kept its storage")
	}
}
