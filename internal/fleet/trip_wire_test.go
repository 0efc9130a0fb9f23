package fleet

// Trip answers on the binary plane inside the fleet: whichever plane the
// client asks on, and whether or not the gateway plans the trip for its
// shards, the client's body is the same bytes; a dead shard degrades the
// same way; a shard that answers for another trip, or answers JSON, is a
// 502; and trips served side by side share none of the gateway's pooled
// decode and merge storage.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecocharge/internal/eis"
	"ecocharge/internal/experiment"
	"ecocharge/internal/geo"
	"ecocharge/internal/wire"
)

// shardDown is a shard that cannot serve: the gateway counts it dead for the
// request.
var shardDown = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusServiceUnavailable) })

// wireTrip is the binary form of a JSON trip request.
func wireTrip(t testing.TB, body []byte) []byte {
	t.Helper()
	var req eis.TripOfferingRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	return wire.AppendTripRequest(nil, &req)
}

// TestFleetTripPlanesAgree sends the benchmark's trips, on the benchmark's
// world, as JSON and in the binary form, through a fleet whose gateway plans
// and searches them and through one whose gateway, on another world,
// forwards them: the client's bodies are byte-identical, every shard answer
// is decoded from the binary form, in measurable time, and the planning
// gateway's blocks are all taken.
func TestFleetTripPlanesAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the Oldenburg scenario")
	}
	sc, err := experiment.BuildScenario("Oldenburg", 0.001, 42)
	if err != nil {
		t.Fatal(err)
	}
	world := sc.Env
	planning := newTravelFleet(t, shardEnvs(t, world, 3), world)
	forwarding := newFleetOver(t, shardEnvs(t, world, 3), selfSearching(world), Options{})

	for i, trip := range routedTrips(t, world.Graph, 17, 6, 40, sc.Start) {
		body := tripRequest(world.Graph, trip, 5, 50000, 0, 4000)
		status, want, header, _ := forwarding.postTrip(t, body)
		if status != http.StatusOK || header.Get(degradedHeader) != "" {
			t.Fatalf("trip %d, forwarding gateway: %d, degraded %q: %.200s", i, status, header.Get(degradedHeader), want)
		}
		w0, sec0 := met.decodeWire.Count(), met.decodeWire.Sum()
		status, got, _, counts := planning.postTrip(t, body)
		if status != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("trip %d: the planning gateway gives the client another body\nplanning:   %d %.300s\nforwarding: %.300s", i, status, got, want)
		}
		if w := met.decodeWire.Count() - w0; w != 3 || !(met.decodeWire.Sum() > sec0) || counts.supplied == 0 || counts.rejected != 0 {
			t.Fatalf("trip %d, planning gateway: %d binary decodes in %v s, %d blocks sent, %d rejected", i, w, met.decodeWire.Sum()-sec0, counts.supplied, counts.rejected)
		}
		for name, f := range map[string]*travelFleet{"planning": planning, "forwarding": forwarding} {
			if status, got, _ := sendAs(t, f.url, http.MethodPost, eis.APIVersion+"/offering/trip", wireTrip(t, body), wire.ContentType, ""); status != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("trip %d sent in the binary form to the %s gateway: %d\ngot:  %.300s\nwant: %.300s", i, name, status, got, want)
			}
		}
	}
}

// TestFleetTripDeadShardOnBothPlanes: with shard 1 down, the planning and the
// forwarding gateway, asked in JSON or in the binary form, lead to the same
// degraded body — the dead shard's entries synthesized into tables selected
// over decoded entry references.
func TestFleetTripDeadShardOnBothPlanes(t *testing.T) {
	world := testEnv(t)
	planning := newTravelFleet(t, shardEnvs(t, world, 3), world)
	forwarding := newFleetOver(t, shardEnvs(t, world, 3), selfSearching(world), Options{})
	planning.shards[1].set(shardDown)
	forwarding.shards[1].set(shardDown)
	for i, trip := range routedTrips(t, world.Graph, 21, 4, 20, fixedNow) {
		body := tripRequest(world.Graph, trip, 4+i, 6000, 2000, 1500)
		gs, got, gh, _ := planning.postTrip(t, body)
		ws, want, wh, _ := forwarding.postTrip(t, body)
		if gs != http.StatusOK || ws != http.StatusOK || !bytes.Equal(got, want) || gh.Get(degradedHeader) != "1" || wh.Get(degradedHeader) != "1" {
			t.Fatalf("trip %d with shard 1 down: the gateways disagree\nplanning:   %d %q %.300s\nforwarding: %d %q %.300s",
				i, gs, gh.Get(degradedHeader), got, ws, wh.Get(degradedHeader), want)
		}
		if !bytes.Contains(got, []byte(`"degraded":`)) {
			t.Fatalf("trip %d: no entry of the dead shard was synthesized: %.300s", i, got)
		}
		if status, wired, _ := sendAs(t, planning.url, http.MethodPost, eis.APIVersion+"/offering/trip", wireTrip(t, body), wire.ContentType, ""); status != http.StatusOK || !bytes.Equal(wired, want) {
			t.Fatalf("trip %d with shard 1 down, sent in the binary form: %d %.300s", i, status, wired)
		}
	}
}

// TestFleetJSONShardIsA502: the gateway reads its shards' answers in the
// binary form only, so a shard that answers JSON — here shard 1 ignores the
// Accept it is sent — is a 502 on every fan-out endpoint, like any body that
// does not decode, never a table.
func TestFleetJSONShardIsA502(t *testing.T) {
	world := testEnv(t)
	envs := shardEnvs(t, world, 3)
	f := newFleetOver(t, envs, selfSearching(world), Options{})
	honest := eis.NewServer(envs[1], eis.ServerOptions{}).Handler()
	f.shards[1].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept")
		honest.ServeHTTP(w, r)
	}))
	center := world.Graph.Bounds().Center()
	trip := routedTrips(t, world.Graph, 8, 1, 18, fixedNow)[0]
	for _, tc := range []struct {
		what, method, pathq string
		body                []byte
	}{
		{"offering", http.MethodPost, eis.APIVersion + "/offering", offeringBody(t, eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, Now: fixedNow})},
		{"trip offering", http.MethodPost, eis.APIVersion + "/offering/trip", tripRequest(world.Graph, trip, 3, 6000, 2000, 1500)},
	} {
		status, body, _ := doReq(t, f.url, tc.method, tc.pathq, tc.body)
		if want := "shard 1: decoding " + tc.what; status != http.StatusBadGateway || !bytes.Contains(body, []byte(want)) {
			t.Errorf("%s from a shard answering JSON: %d %.200s, want a 502 saying %q", tc.what, status, body, want)
		}
	}
}

// TestFleetCrossedIntervalIsA502: a shard table or trip segment with an entry
// whose interval bounds are crossed — the binary form decodes it — is a 502,
// as a body that does not decode is, never merged into a 200. The harness's
// hop crosses the SC of an offering entry and the D of a trip entry in every
// shard answer that has one.
func TestFleetCrossedIntervalIsA502(t *testing.T) {
	h := newFleetHarness(t, harnessOpts{n: 3})
	var crossed atomic.Int64
	next := h.gw.hop.receive
	h.gw.hop.receive = func(x *exchange) (int, answerHeader, error) {
		status, header, err := next(x)
		if err != nil || status != http.StatusOK {
			return status, header, err
		}
		buf := x.buf
		switch x.c.ep {
		case epOffering:
			var resp eis.OfferingResponse
			if wire.DecodeOfferingResponse(buf.B, &resp) == nil && len(resp.Entries) > 0 {
				resp.Entries[0].SC = eis.IntervalJSON{Min: 0.9, Max: 0.1}
				buf.B = wire.AppendOfferingResponse(buf.B[:0], &resp)
				crossed.Add(1)
			}
		case epTrip:
			var resp eis.TripOfferingResponse
			if wire.DecodeTripResponse(buf.B, &resp) != nil {
				break
			}
			for i := range resp.Segments {
				if seg := &resp.Segments[i]; len(seg.Entries) > 0 {
					seg.Entries[len(seg.Entries)-1].D = eis.IntervalJSON{Min: 1, Max: 0}
					buf.B = wire.AppendTripResponse(buf.B[:0], &resp)
					crossed.Add(1)
					break
				}
			}
		}
		return status, header, err
	}
	center := h.env.Graph.Bounds().Center()
	trip := routedTrips(t, h.env.Graph, 8, 1, 18, fixedNow)[0]
	for _, tc := range []struct {
		what, pathq string
		body        []byte
	}{
		{"offering", eis.APIVersion + "/offering", offeringBody(t, eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, Now: fixedNow})},
		{"trip offering", eis.APIVersion + "/offering/trip", tripRequest(h.env.Graph, trip, 3, 6000, 2000, 1500)},
	} {
		before := crossed.Load()
		status, body, _ := doReq(t, h.gwts.URL, http.MethodPost, tc.pathq, tc.body)
		if crossed.Load() == before {
			t.Fatalf("%s: no shard answer had an entry to cross", tc.what)
		}
		if status != http.StatusBadGateway || !bytes.Contains(body, []byte("crossed interval")) {
			t.Errorf("%s with a crossed interval: %d %.200s, want a 502 naming it", tc.what, status, body)
		}
	}
}

// TestFleetForeignPartitionIsA502: shard 0 started as partition 1 of 3
// ranks partition 1's chargers, twice over with shard 1 and none of its own.
// Its answer is a 502 naming the shard its entry belongs to, on /offering
// and /offering/trip, never a 200 without partition 0's chargers.
func TestFleetForeignPartitionIsA502(t *testing.T) {
	world := testEnv(t)
	envs := shardEnvs(t, world, 3)
	envs[0] = envs[1]
	f := newTravelFleet(t, envs, world)
	center := world.Graph.Bounds().Center()
	trip := routedTrips(t, world.Graph, 8, 1, 18, fixedNow)[0]
	for _, tc := range []struct {
		what, pathq string
		body        []byte
	}{
		{"offering", eis.APIVersion + "/offering", offeringBody(t, eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, K: 10, Now: fixedNow})},
		{"trip offering", eis.APIVersion + "/offering/trip", tripRequest(world.Graph, trip, 3, 6000, 2000, 1500)},
	} {
		status, body, _ := doReq(t, f.url, http.MethodPost, tc.pathq, tc.body)
		if want := "shard 0: decoding " + tc.what; status != http.StatusBadGateway || !bytes.Contains(body, []byte(want)) || !bytes.Contains(body, []byte("belongs to shard 1")) {
			t.Errorf("%s from a shard on another partition: %d %.200s, want a 502 saying %q and naming shard 1", tc.what, status, body, want)
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
	f := newFleetOver(t, envs, selfSearching(world), Options{})
	honest := eis.NewServer(envs[2], eis.ServerOptions{}).Handler()
	f.shards[2].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/offering/trip") {
			r = r.Clone(r.Context())
			r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(other)), int64(len(other))
			r.Header.Set("Content-Type", eis.ContentTypeJSON)
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
// sizes and radii served side by side by a planning gateway, with shard 2
// down for good measure, each get the bytes a forwarding gateway gives them
// one at a time — the pooled per-shard trip storage, the selection and the
// merged trip of one request never show in another's answer.
func TestFleetTripConcurrentSharesNoStorage(t *testing.T) {
	world := testEnv(t)
	f := newTravelFleet(t, shardEnvs(t, world, 4), world)
	oracle := newFleetOver(t, shardEnvs(t, world, 4), selfSearching(world), Options{})
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
// trips it decoded and merged for the next one, and of the request bodies it
// sent, but not an outsized trip's or body's.
func TestPutFanoutCapsTripStorage(t *testing.T) {
	g := &Gateway{}
	fo := mergeFixture(3)
	fo.calls, fo.spans = make([]call, 3), make([]span, 3)
	fo.body = make([]byte, 0, maxPooledBodyBytes)
	fo.bodies = [][]byte{make([]byte, 0, 64), make([]byte, 0, maxPooledBodyBytes+1), nil}
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
	if fo.body == nil || fo.bodies[0] == nil {
		t.Error("an ordinary request body's storage was dropped")
	}
	if fo.bodies[1] != nil {
		t.Errorf("an outsized request body kept %d bytes of storage", cap(fo.bodies[1]))
	}
	fo.top, fo.tripMerged.Segments = make([]eis.OfferingEntry, 0, maxPooledTripEntries+1), make([]eis.SegmentOffering, 3)
	fo.body = make([]byte, 0, maxPooledBodyBytes+1)
	g.putFanout(fo)
	if fo.top != nil || fo.tripMerged.Segments != nil {
		t.Error("an outsized merged trip kept its storage")
	}
	if fo.body != nil {
		t.Errorf("an outsized request body kept %d bytes of storage", cap(fo.body))
	}
}
