package fleet

// Chaos suite of the sharded fleet. The differential harness runs one
// single-process EIS over the whole inventory next to a gateway over N
// shard servers built from ShardEnv, and asserts:
//
//   - at fault rate 0 the gateway is byte-identical to the single EIS for
//     all six methods (including error responses and cache flags);
//   - under shard loss every response still answers 200 with a
//     tabletest-valid table, the shard-degraded tag lands exactly on the
//     dead shard's chargers (pinned against an independent oracle), and
//     nothing is dropped;
//   - hedged replicas mask a slow primary with no degradation at all;
//   - a slow shard without a replica cannot hold a request past the
//     per-shard deadline;
//   - a flapping shard degrades while its breaker is open and returns to
//     byte-identity after the half-open trial.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ecocharge/internal/cknn"
	"ecocharge/internal/cknn/tabletest"
	"ecocharge/internal/eis"
	"ecocharge/internal/fault"
	"ecocharge/internal/geo"
	"ecocharge/internal/interval"
	"ecocharge/internal/roadnet"
)

type fleetHarness struct {
	t      testing.TB
	env    *cknn.Env
	n      int
	part   Partition
	clk    *fakeClock
	inj    *fault.Injector
	single *httptest.Server
	gw     *Gateway
	gwts   *httptest.Server
}

type harnessOpts struct {
	n int
	// shapes receives the shard hosts in index order and returns the fault
	// schedule; nil runs fault-free.
	shapes func(hosts []string) map[string]fault.ShardShape
	// replicas lists shard indexes that get a replica server (same shard
	// environment, never faulted).
	replicas []int
	// gw tweaks the gateway options after the harness defaults.
	gw func(*Options)
}

func newFleetHarness(t testing.TB, o harnessOpts) *fleetHarness {
	t.Helper()
	h := &fleetHarness{t: t, env: testEnv(t), n: o.n, part: Partition{N: o.n}, clk: &fakeClock{t: fixedNow}}
	sopts := eis.ServerOptions{Clock: h.clk.Now}
	h.single = httptest.NewServer(eis.NewServer(h.env, sopts).Handler())
	t.Cleanup(h.single.Close)

	shards := make([]Shard, o.n)
	hosts := make([]string, o.n)
	for i := 0; i < o.n; i++ {
		se, err := ShardEnv(h.env, i, o.n)
		if err != nil {
			t.Fatalf("ShardEnv(%d): %v", i, err)
		}
		ts := httptest.NewServer(eis.NewServer(se, sopts).Handler())
		t.Cleanup(ts.Close)
		shards[i].URL = ts.URL
		hosts[i] = strings.TrimPrefix(ts.URL, "http://")
	}
	for _, ri := range o.replicas {
		se, err := ShardEnv(h.env, ri, o.n)
		if err != nil {
			t.Fatalf("ShardEnv(%d): %v", ri, err)
		}
		rts := httptest.NewServer(eis.NewServer(se, sopts).Handler())
		t.Cleanup(rts.Close)
		shards[ri].Replica = rts.URL
	}

	// The gateway holds the shards' world throughout the suite: whatever a
	// test does to the fleet, it does to a gateway that searches for its
	// shards wherever it can.
	opts := Options{
		Clock:            h.clk.Now,
		ShardTimeout:     5 * time.Second,
		HedgeDelay:       20 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  30 * time.Second,
	}
	if o.gw != nil {
		o.gw(&opts)
	}
	gw, err := NewGateway(shards, h.env, opts)
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	if o.shapes != nil {
		h.inj = fault.New(fault.Config{Seed: 1})
		gw.hop = faultyHop(fault.NewFleet(h.inj, o.shapes(hosts)), gw.hop)
	}
	h.gw = gw
	h.gwts = httptest.NewServer(gw.Handler())
	t.Cleanup(h.gwts.Close)
	return h
}

// faultyHop wraps both halves of a gateway's hop in the fleet's fault
// schedule, decided once an exchange, when it is sent: one it fails returns
// fault's injected error without reaching the shard, and one it slows is
// sent, its answer then not read before the latency has passed since the
// send, waited out under the exchange's own context and deadline — an answer
// the wait outlives never comes, as a hung shard's does not. An inline send
// that would wait (errWouldWait) is decided again when it goes out apart;
// the schedules of this suite draw nothing per exchange, so the two agree.
func faultyHop(fl *fault.Fleet, next hop) hop {
	var slowed sync.Map // *exchange → when its answer may be read
	return hop{
		send: func(x *exchange) error {
			path := endpointPaths[x.c.ep]
			d := fl.Decide(x.t.addr, path)
			if d.Fail {
				return &fault.TransportError{Endpoint: x.t.addr + path}
			}
			if err := next.send(x); err != nil {
				return err
			}
			if d.Latency > 0 {
				slowed.Store(x, time.Now().Add(d.Latency))
			}
			return nil
		},
		receive: func(x *exchange) (int, answerHeader, error) {
			if due, ok := slowed.LoadAndDelete(x); ok {
				if err := waitOut(x, due.(time.Time)); err != nil {
					_ = x.pc.conn.Close() // the answer stays unread
					_, _, _ = next.receive(x)
					return 0, answerHeader{}, err
				}
			}
			return next.receive(x)
		},
	}
}

// waitOut waits until due, or until x's context is done or its deadline has
// passed, which is the error.
func waitOut(x *exchange, due time.Time) error {
	wait, err := time.Until(due), error(nil)
	if !x.deadline.IsZero() && x.deadline.Before(due) {
		wait, err = time.Until(x.deadline), context.DeadlineExceeded
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-timer.C:
		return err
	case <-x.ctx.Done():
		return x.ctx.Err()
	}
}

func doReq(t testing.TB, base, method, pathq string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	return sendAs(t, base, method, pathq, body, eis.ContentTypeJSON, "")
}

// sendAs is doReq with a body sent under contentType, asking for the answer
// in the accept format ("" asks for none).
func sendAs(t testing.TB, base, method, pathq string, body []byte, contentType, accept string) (int, []byte, http.Header) {
	t.Helper()
	var req *http.Request
	var err error
	if body != nil {
		req, err = http.NewRequest(method, base+pathq, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
	} else {
		req, err = http.NewRequest(method, base+pathq, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, pathq, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes(), resp.Header
}

// assertIdentical requires the gateway and the single EIS to answer the
// request with the same status and the same bytes, with no degraded marker.
func (h *fleetHarness) assertIdentical(label, method, pathq string, body []byte) {
	h.t.Helper()
	gs, gb, gh := doReq(h.t, h.gwts.URL, method, pathq, body)
	ss, sb, _ := doReq(h.t, h.single.URL, method, pathq, body)
	if gs != ss {
		h.t.Fatalf("%s: gateway status %d, single EIS %d (gateway body %.200s)", label, gs, ss, gb)
	}
	if !bytes.Equal(gb, sb) {
		h.t.Fatalf("%s: responses differ\ngateway: %.400s\nsingle:  %.400s", label, gb, sb)
	}
	if d := gh.Get(degradedHeader); d != "" {
		h.t.Fatalf("%s: fault-free response marked degraded (%s)", label, d)
	}
}

func offeringBody(t testing.TB, req eis.OfferingRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// tableFromWire rebuilds a cknn table from wire entries so tabletest can
// validate gateway output with the same invariants as everything else.
func tableFromWire(t *testing.T, env *cknn.Env, entries []eis.OfferingEntry) cknn.OfferingTable {
	t.Helper()
	var tab cknn.OfferingTable
	for _, e := range entries {
		c, ok := env.Chargers.ByID(e.ChargerID)
		if !ok {
			t.Fatalf("entry charger %d not in environment", e.ChargerID)
		}
		tab.Entries = append(tab.Entries, cknn.Entry{
			Charger: c,
			SC:      interval.FromBounds(e.SC.Min, e.SC.Max),
			Comp: cknn.Components{
				L: e.L.Interval(), A: e.A.Interval(), D: e.D.Interval(),
				Degraded: cknn.Degraded(e.Degraded),
			},
		})
	}
	return tab
}

func fmtFloat(v float64) string { return fmt.Sprintf("%v", v) }

// TestChaosFleetByteIdentityFaultFree: at fault rate 0 a gateway over three
// shards is indistinguishable, byte for byte, from one EIS over the whole
// inventory — all six methods, repeated (cache-hitting) requests, and error
// responses included — while it runs the search of every offering its
// shards have not cached. Shards always speak wire, the one setup left.
func TestChaosFleetByteIdentityFaultFree(t *testing.T) {
	t.Run("wire shards", func(t *testing.T) {
		supplied := met.travelSupplied.Value()
		sixMethodsIdentical(t)
		if met.travelSupplied.Value() == supplied {
			t.Fatal("the gateway holds the road world and never searched for its shards")
		}
	})
}

func sixMethodsIdentical(t *testing.T) {
	h := newFleetHarness(t, harnessOpts{n: 3})
	h.gw.ProbeAll(context.Background()) // every shard states the gateway's world
	center := h.env.Graph.Bounds().Center()
	at := fixedNow.Add(time.Hour).Format(time.RFC3339)

	// chargers — several radii including an empty one.
	for _, radius := range []float64{1, 3000, 50000} {
		pathq := eis.APIVersion + "/chargers?lat=" + fmtFloat(center.Lat) + "&lon=" + fmtFloat(center.Lon) + "&radius_m=" + fmtFloat(radius)
		h.assertIdentical("chargers", http.MethodGet, pathq, nil)
	}
	// chargers — the canonical 400 passes through byte-identically.
	h.assertIdentical("chargers bad params", http.MethodGet, eis.APIVersion+"/chargers?lat=abc&lon=8&radius_m=10", nil)

	// weather and availability — one charger per owning shard, plus the
	// canonical 404 for a charger that exists nowhere.
	covered := make(map[int]bool)
	for _, c := range h.env.Chargers.All() {
		if s := h.part.ShardOf(c.ID); !covered[s] {
			covered[s] = true
			q := "?charger=" + fmt.Sprint(c.ID) + "&t=" + at
			h.assertIdentical("weather", http.MethodGet, eis.APIVersion+"/weather"+q, nil)
			h.assertIdentical("availability", http.MethodGet, eis.APIVersion+"/availability"+q, nil)
		}
	}
	if len(covered) != 3 {
		t.Fatalf("test env covers %d shards, want 3", len(covered))
	}
	h.assertIdentical("weather 404", http.MethodGet, eis.APIVersion+"/weather?charger=999999", nil)

	// traffic.
	h.assertIdentical("traffic", http.MethodGet, eis.APIVersion+"/traffic?t="+at, nil)

	// offering — several anchors/parameter mixes, each twice so the second
	// pass compares the cache-hit responses (Cached must AND across shards).
	anchors := []geo.Point{
		center,
		{Lat: center.Lat + 0.01, Lon: center.Lon - 0.01},
		{Lat: center.Lat - 0.02, Lon: center.Lon + 0.02},
	}
	for i, p := range anchors {
		body := offeringBody(t, eis.OfferingRequest{
			Lat: p.Lat, Lon: p.Lon, K: 3 + i, RadiusM: 4000 + 1000*float64(i),
			Weights: eis.WeightsJSON{L: 2, A: 1, D: 1}, Now: fixedNow,
		})
		h.assertIdentical("offering", http.MethodPost, eis.APIVersion+"/offering", body)
		h.assertIdentical("offering cached", http.MethodPost, eis.APIVersion+"/offering", body)
	}
	// offering with defaulted parameters (zero K/radius/weights).
	h.assertIdentical("offering defaults", http.MethodPost, eis.APIVersion+"/offering",
		offeringBody(t, eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, Now: fixedNow}))
	// offering validation error passes through.
	h.assertIdentical("offering bad weights", http.MethodPost, eis.APIVersion+"/offering",
		offeringBody(t, eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, Weights: eis.WeightsJSON{L: -1}, Now: fixedNow}))

	// offering/trip — ReuseDistM 1 disables cross-segment adaptation, whose
	// cache geometry is legitimately shard-local (documented divergence).
	a := h.env.Graph.Node(0).P
	b := h.env.Graph.Node(roadnet.NodeID(h.env.Graph.NumNodes() - 1)).P
	trip, err := json.Marshal(eis.TripOfferingRequest{
		Waypoints: []eis.LatLon{{Lat: a.Lat, Lon: a.Lon}, {Lat: b.Lat, Lon: b.Lon}},
		Depart:    fixedNow, K: 3, RadiusM: 4000, ReuseDistM: 1, SegmentLenM: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.assertIdentical("offering/trip", http.MethodPost, eis.APIVersion+"/offering/trip", trip)
}

// deadShardOracle is the table an independent oracle predicts for an
// offering while shard dead gives no answer: rank the whole inventory on the
// single EIS, keep the live shards' entries, and replace the dead shard's
// slice of the pool with ignorance-bound synthesis over every in-radius
// charger it owns. (Not just the chargers the engine would have offered: the
// engine drops in-radius chargers whose derouting exceeds the budget, but a
// gateway that cannot reach the shard cannot know deroutability — "never
// drop" means every owned charger in radius comes back widened.) The gateway
// must land on exactly this table.
func (h *fleetHarness) deadShardOracle(dead int, center geo.Point, k int, radiusM float64, weights eis.WeightsJSON) []eis.OfferingEntry {
	h.t.Helper()
	allBody := offeringBody(h.t, eis.OfferingRequest{
		Lat: center.Lat, Lon: center.Lon, K: h.env.Chargers.Len(), RadiusM: radiusM, Weights: weights, Now: fixedNow,
	})
	ss, sb, _ := doReq(h.t, h.single.URL, http.MethodPost, eis.APIVersion+"/offering", allBody)
	if ss != http.StatusOK {
		h.t.Fatalf("oracle request failed: %d %s", ss, sb)
	}
	var full eis.OfferingResponse
	if err := json.Unmarshal(sb, &full); err != nil {
		h.t.Fatal(err)
	}
	w := cknn.Weights{L: weights.L, A: weights.A, D: weights.D}.Normalized()
	var pool []eis.OfferingEntry
	for _, e := range full.Entries {
		if h.part.ShardOf(e.ChargerID) != dead {
			pool = append(pool, e)
		}
	}
	for _, c := range h.env.Chargers.All() {
		if h.part.ShardOf(c.ID) == dead && geo.Distance(center, c.P) <= radiusM {
			pool = append(pool, synthEntry(c, w))
		}
	}
	return mergeEntriesOracle(pool, k)
}

// blackoutForever is a window that never closes within a test.
var blackoutForever = []fault.Window{{From: 1, To: 1 << 60}}

// TestChaosFleetShardBlackout kills one of three shards after the gateway
// has seen it once. Every method must keep answering (assertShard1Served).
func TestChaosFleetShardBlackout(t *testing.T) {
	h := newFleetHarness(t, harnessOpts{
		n: 3,
		shapes: func(hosts []string) map[string]fault.ShardShape {
			return map[string]fault.ShardShape{hosts[1]: {Blackouts: blackoutForever}}
		},
	})
	ctx := context.Background()
	h.gw.ProbeAll(ctx) // tick 0: healthy
	h.inj.Advance(1)   // shard 1 goes dark
	h.gw.ProbeAll(ctx)
	h.gw.ProbeAll(ctx) // two failed probe rounds trip the breaker (threshold 2)

	st := h.gw.Status()
	if st[1].ProbeOK || st[1].Breaker != "open" {
		t.Fatalf("shard 1 status after blackout: %+v", st[1])
	}
	if st[0].Breaker != "closed" || st[2].Breaker != "closed" {
		t.Fatalf("healthy shards tripped: %+v %+v", st[0], st[2])
	}
	if st[1].Inventory <= 0 {
		t.Fatalf("shard 1 inventory not retained through the outage: %+v", st[1])
	}
	h.assertShard1Served(t)
}

// TestFleetDeadFromBootStaysInEveryTable: a shard that is dark from the
// first probe on is served from the gateway's world like one that died
// later — its chargers in every table at the ignorance bound, and every data
// feed a single EIS's answer — with no answer of its own ever read.
func TestFleetDeadFromBootStaysInEveryTable(t *testing.T) {
	h := newFleetHarness(t, harnessOpts{
		n: 3,
		shapes: func(hosts []string) map[string]fault.ShardShape {
			return map[string]fault.ShardShape{hosts[1]: {Blackouts: []fault.Window{{From: 0, To: 1 << 60}}}}
		},
	})
	ctx := context.Background()
	h.gw.ProbeAll(ctx)
	h.gw.ProbeAll(ctx) // two failed probe rounds trip the breaker (threshold 2)
	if st := h.gw.Status()[1]; st.ProbeOK || st.Breaker != "open" || st.Searched {
		t.Fatalf("shard 1 status, dark from boot: %+v", st)
	}
	h.assertShard1Served(t)
}

// assertShard1Served requires every method to keep answering while shard 1
// of three does not answer: its chargers stay in every Offering Table at the
// ignorance bound with the full degraded mask, in exactly the positions an
// independent oracle predicts, and the data feeds — radius queries, its
// chargers' point lookups, a charger nobody owns, traffic — answer what a
// single EIS answers, asking no shard.
func (h *fleetHarness) assertShard1Served(t *testing.T) {
	t.Helper()
	const dead, deadMark = 1, "1"

	center := h.env.Graph.Bounds().Center()
	const k, radiusM = 5, 6000
	weights := eis.WeightsJSON{L: 2, A: 1, D: 1}
	body := offeringBody(t, eis.OfferingRequest{
		Lat: center.Lat, Lon: center.Lon, K: k, RadiusM: radiusM, Weights: weights, Now: fixedNow,
	})

	want := h.deadShardOracle(dead, center, k, radiusM, weights)

	gs, gb, gh := doReq(t, h.gwts.URL, http.MethodPost, eis.APIVersion+"/offering", body)
	if gs != http.StatusOK {
		t.Fatalf("offering under blackout: status %d %s", gs, gb)
	}
	if d := gh.Get(degradedHeader); d != deadMark {
		t.Fatalf("degraded header %q, want %q", d, deadMark)
	}
	var got eis.OfferingResponse
	if err := json.Unmarshal(gb, &got); err != nil {
		t.Fatal(err)
	}
	tabletest.Check(t, tableFromWire(t, h.env, got.Entries), k, "blackout offering")
	if len(got.Entries) != len(want) {
		t.Fatalf("merged table holds %d entries, oracle predicts %d", len(got.Entries), len(want))
	}
	sawSynth := false
	for i, e := range got.Entries {
		if e.ChargerID != want[i].ChargerID {
			t.Fatalf("position %d holds charger %d, oracle predicts %d", i, e.ChargerID, want[i].ChargerID)
		}
		if owner := h.part.ShardOf(e.ChargerID); owner == dead {
			sawSynth = true
			if e.Degraded != uint8(cknn.DegradedAll) {
				t.Fatalf("dead-shard charger %d has mask %#x, want DegradedAll", e.ChargerID, e.Degraded)
			}
		} else if e.Degraded&uint8(cknn.DegradedShard) != 0 {
			t.Fatalf("live charger %d wrongly shard-tagged", e.ChargerID)
		}
	}
	if !sawSynth {
		t.Fatal("no dead-shard charger ranked into the table; pick a bigger radius")
	}

	// The data feeds are the gateway's own, answered from its world: a single
	// EIS's bytes, the dead shard's chargers included, marked degraded
	// nowhere, and no shard is asked.
	asked := met.shardRequests.Value()
	pathq := eis.APIVersion + "/chargers?lat=" + fmtFloat(center.Lat) + "&lon=" + fmtFloat(center.Lon) + "&radius_m=6000"
	h.assertIdentical("chargers during blackout", http.MethodGet, pathq, nil)
	var deadC, liveC int64 = -1, -1
	for _, c := range h.env.Chargers.All() {
		if h.part.ShardOf(c.ID) == dead && deadC < 0 {
			deadC = c.ID
		}
		if h.part.ShardOf(c.ID) == 0 && liveC < 0 {
			liveC = c.ID
		}
	}
	at := fixedNow.Add(time.Hour).Format(time.RFC3339)
	for _, id := range []int64{deadC, liveC} {
		q := "?charger=" + fmt.Sprint(id) + "&t=" + at
		h.assertIdentical("weather during blackout", http.MethodGet, eis.APIVersion+"/weather"+q, nil)
		h.assertIdentical("availability during blackout", http.MethodGet, eis.APIVersion+"/availability"+q, nil)
	}
	// A charger the world does not hold, which the dead shard would own, is
	// the 404 a single EIS gives — not a fabricated estimate.
	unknown := int64(1_000_000)
	for h.part.ShardOf(unknown) != dead {
		unknown++
	}
	h.assertIdentical("unknown charger on the dead shard", http.MethodGet, eis.APIVersion+"/weather?charger="+fmt.Sprint(unknown), nil)
	h.assertIdentical("traffic during blackout", http.MethodGet, eis.APIVersion+"/traffic?t="+at, nil)
	if n := met.shardRequests.Value() - asked; n != 0 {
		t.Fatalf("the data feeds asked the shards %d times", n)
	}

	// offering/trip: every segment stays tabletest-valid with the dead
	// shard's chargers widened, never dropped.
	a := h.env.Graph.Node(0).P
	b := h.env.Graph.Node(roadnet.NodeID(h.env.Graph.NumNodes() - 1)).P
	trip, err := json.Marshal(eis.TripOfferingRequest{
		Waypoints: []eis.LatLon{{Lat: a.Lat, Lon: a.Lon}, {Lat: b.Lat, Lon: b.Lon}},
		Depart:    fixedNow, K: k, RadiusM: radiusM, Weights: weights, ReuseDistM: 1, SegmentLenM: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	gs, gb, gh = doReq(t, h.gwts.URL, http.MethodPost, eis.APIVersion+"/offering/trip", trip)
	if gs != http.StatusOK || gh.Get(degradedHeader) != deadMark {
		t.Fatalf("trip under blackout: status %d header %q: %.300s", gs, gh.Get(degradedHeader), gb)
	}
	var tripResp eis.TripOfferingResponse
	if err := json.Unmarshal(gb, &tripResp); err != nil {
		t.Fatal(err)
	}
	if len(tripResp.Segments) == 0 || len(tripResp.SplitPoints) == 0 {
		t.Fatalf("trip response empty: %d segments, %d split points", len(tripResp.Segments), len(tripResp.SplitPoints))
	}
	synthTotal := 0
	for _, seg := range tripResp.Segments {
		tabletest.Check(t, tableFromWire(t, h.env, seg.Entries), k, fmt.Sprintf("blackout trip segment %d", seg.SegmentIndex))
		for _, e := range seg.Entries {
			if owner := h.part.ShardOf(e.ChargerID); owner == dead {
				synthTotal++
				if e.Degraded != uint8(cknn.DegradedAll) {
					t.Fatalf("segment %d: dead-shard charger %d mask %#x", seg.SegmentIndex, e.ChargerID, e.Degraded)
				}
			}
		}
	}
	if synthTotal == 0 {
		t.Fatal("no dead-shard charger appears along the whole trip")
	}
}

// TestChaosFleetHedgedReplicaMasksSlowShard: with a replica configured, a
// slow primary is hedged and the fleet stays byte-identical to the single
// EIS — no degradation, bounded latency.
func TestChaosFleetHedgedReplicaMasksSlowShard(t *testing.T) {
	h := newFleetHarness(t, harnessOpts{
		n:        2,
		replicas: []int{1},
		shapes: func(hosts []string) map[string]fault.ShardShape {
			return map[string]fault.ShardShape{hosts[1]: {
				Slow:    []fault.Window{{From: 0, To: 1 << 60}},
				Latency: 400 * time.Millisecond,
			}}
		},
	})
	wins := met.hedgeWins.Value()
	center := h.env.Graph.Bounds().Center()
	start := time.Now()
	h.assertIdentical("offering via hedge", http.MethodPost, eis.APIVersion+"/offering",
		offeringBody(t, eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, K: 4, RadiusM: 5000, Now: fixedNow}))
	if elapsed := time.Since(start); elapsed >= 400*time.Millisecond {
		t.Fatalf("hedged request took %v, slower than the injected primary latency", elapsed)
	}
	if met.hedgeWins.Value() == wins {
		t.Fatal("no hedge win recorded; the replica never served")
	}
}

// TestChaosFleetSlowShardBounded: without a replica, a hung shard cannot
// hold a request past the per-shard deadline — the fleet answers inside the
// budget with the slow shard honestly widened.
func TestChaosFleetSlowShardBounded(t *testing.T) {
	h := newFleetHarness(t, harnessOpts{
		n: 2,
		shapes: func(hosts []string) map[string]fault.ShardShape {
			return map[string]fault.ShardShape{hosts[1]: {
				Slow:    []fault.Window{{From: 1, To: 1 << 60}},
				Latency: 30 * time.Second,
			}}
		},
		gw: func(o *Options) { o.ShardTimeout = 300 * time.Millisecond },
	})
	ctx := context.Background()
	h.gw.ProbeAll(ctx) // tick 0: healthy
	h.inj.Advance(1)   // shard 1 starts hanging

	center := h.env.Graph.Bounds().Center()
	const k = 4
	body := offeringBody(t, eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, K: k, RadiusM: 6000, Now: fixedNow})
	start := time.Now()
	gs, gb, gh := doReq(t, h.gwts.URL, http.MethodPost, eis.APIVersion+"/offering", body)
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("request took %v against a hung shard; deadline is 300ms", elapsed)
	}
	if gs != http.StatusOK || gh.Get(degradedHeader) != "1" {
		t.Fatalf("slow-shard offering: status %d header %q", gs, gh.Get(degradedHeader))
	}
	var got eis.OfferingResponse
	if err := json.Unmarshal(gb, &got); err != nil {
		t.Fatal(err)
	}
	tabletest.Check(t, tableFromWire(t, h.env, got.Entries), k, "slow-shard offering")
}

// TestChaosFleetSlowFirstShardBounded: the fan-out reads its answers in
// shard order, so here it waits on the first shard of three, which hangs.
// The other two answered while it waited, and past the deadline what has
// arrived is still read: the fleet answers inside the budget, shard 0
// widened and shards 1 and 2 live, in exactly the positions the dead-shard
// oracle predicts.
func TestChaosFleetSlowFirstShardBounded(t *testing.T) {
	h := newFleetHarness(t, harnessOpts{
		n: 3,
		shapes: func(hosts []string) map[string]fault.ShardShape {
			return map[string]fault.ShardShape{hosts[0]: {
				Slow:    []fault.Window{{From: 1, To: 1 << 60}},
				Latency: 30 * time.Second,
			}}
		},
		gw: func(o *Options) { o.ShardTimeout = 300 * time.Millisecond },
	})
	h.gw.ProbeAll(context.Background()) // tick 0: healthy
	body, k, want := warmFirstShardOffering(t, h)
	h.inj.Advance(1) // shard 0 starts hanging
	assertFirstShardDead(t, h, "slow-first-shard offering", body, k, want)
}

// warmFirstShardOffering ranks an offering at the map's centre once while
// every shard answers, so that shards 1 and 2 answer it from their caches at
// once, however slow the host, and returns its body, its k and the table the
// dead-shard oracle predicts for it once shard 0 gives no answer. A
// synthesized entry ranks above every live one, so k reaches past the
// chargers shard 0 owns in the radius.
func warmFirstShardOffering(t *testing.T, h *fleetHarness) ([]byte, int, []eis.OfferingEntry) {
	t.Helper()
	center := h.env.Graph.Bounds().Center()
	const k, radiusM = 40, 6000
	weights := eis.WeightsJSON{L: 2, A: 1, D: 1}
	body := offeringBody(t, eis.OfferingRequest{
		Lat: center.Lat, Lon: center.Lon, K: k, RadiusM: radiusM, Weights: weights, Now: fixedNow,
	})
	if gs, gb, _ := doReq(t, h.gwts.URL, http.MethodPost, eis.APIVersion+"/offering", body); gs != http.StatusOK {
		t.Fatalf("warm-up offering: status %d %s", gs, gb)
	}
	return body, k, h.deadShardOracle(0, center, k, radiusM, weights)
}

// assertFirstShardDead sends the offering body to the gateway, whose shard 0
// gives no answer, and requires a 200 inside the 2 s budget that widens
// shard 0 alone: the merged table is the one the dead-shard oracle predicts,
// shard 0's chargers in it at the ignorance bound, and at least one entry of
// the shards that answered, untagged.
func assertFirstShardDead(t *testing.T, h *fleetHarness, label string, body []byte, k int, want []eis.OfferingEntry) {
	t.Helper()
	start := time.Now()
	gs, gb, gh := doReq(t, h.gwts.URL, http.MethodPost, eis.APIVersion+"/offering", body)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("%s: request took %v behind a first shard that gives no answer; deadline is 300ms", label, elapsed)
	}
	if gs != http.StatusOK || gh.Get(degradedHeader) != "0" {
		t.Fatalf("%s: status %d header %q: %.300s", label, gs, gh.Get(degradedHeader), gb)
	}
	var got eis.OfferingResponse
	if err := json.Unmarshal(gb, &got); err != nil {
		t.Fatal(err)
	}
	tabletest.Check(t, tableFromWire(t, h.env, got.Entries), k, label)
	if len(got.Entries) != len(want) {
		t.Fatalf("%s: merged table holds %d entries, oracle predicts %d", label, len(got.Entries), len(want))
	}
	live := 0
	for i, e := range got.Entries {
		if e.ChargerID != want[i].ChargerID {
			t.Fatalf("%s: position %d holds charger %d, oracle predicts %d", label, i, e.ChargerID, want[i].ChargerID)
		}
		if h.part.ShardOf(e.ChargerID) == 0 {
			if e.Degraded != uint8(cknn.DegradedAll) {
				t.Fatalf("%s: dead-shard charger %d has mask %#x, want DegradedAll", label, e.ChargerID, e.Degraded)
			}
		} else if e.Degraded&uint8(cknn.DegradedShard) != 0 {
			t.Fatalf("%s: charger %d of a shard that answered is shard-tagged", label, e.ChargerID)
		} else {
			live++
		}
	}
	if live == 0 {
		t.Fatalf("%s: no entry of shards 1 and 2 in the table; their answers were lost", label)
	}
}

// TestChaosFleetFlapRecovery: an asymmetric API partition (probes keep
// passing) is caught by passive failure accounting, served degraded while
// the breaker is open, and the half-open trial restores byte-identity after
// the partition heals.
func TestChaosFleetFlapRecovery(t *testing.T) {
	h := newFleetHarness(t, harnessOpts{
		n: 2,
		shapes: func(hosts []string) map[string]fault.ShardShape {
			return map[string]fault.ShardShape{hosts[1]: {PartitionAPI: []fault.Window{{From: 1, To: 2}}}}
		},
	})
	ctx := context.Background()
	h.gw.ProbeAll(ctx)
	h.inj.Advance(1) // API partition: probes lie healthy

	center := h.env.Graph.Bounds().Center()
	const k = 3
	body := offeringBody(t, eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, K: k, RadiusM: 6000, Now: fixedNow})

	// Two passive failures open the breaker; both responses are already
	// valid degraded tables.
	for i := 0; i < 2; i++ {
		gs, gb, gh := doReq(t, h.gwts.URL, http.MethodPost, eis.APIVersion+"/offering", body)
		if gs != http.StatusOK || gh.Get(degradedHeader) != "1" {
			t.Fatalf("partitioned request %d: status %d header %q", i, gs, gh.Get(degradedHeader))
		}
		var got eis.OfferingResponse
		if err := json.Unmarshal(gb, &got); err != nil {
			t.Fatal(err)
		}
		tabletest.Check(t, tableFromWire(t, h.env, got.Entries), k, "partitioned offering")
	}
	if st := h.gw.Status(); st[1].Breaker != "open" || !st[1].ProbeOK {
		t.Fatalf("expected open breaker behind healthy probes, got %+v", st[1])
	}

	// Partition heals, but the open breaker keeps failing fast until the
	// cooldown elapses.
	h.inj.Advance(1)
	if _, _, gh := doReq(t, h.gwts.URL, http.MethodPost, eis.APIVersion+"/offering", body); gh.Get(degradedHeader) != "1" {
		t.Fatal("open breaker served the flapping shard before its cooldown")
	}

	// Cooldown elapses: the half-open trial hits the healed shard, closes
	// the breaker, and the fleet is byte-identical again.
	h.clk.Advance(31 * time.Second)
	h.assertIdentical("offering after recovery", http.MethodPost, eis.APIVersion+"/offering", body)
	if st := h.gw.Status(); st[1].Breaker != "closed" {
		t.Fatalf("breaker did not close after recovery: %+v", st[1])
	}
}
