package fleet

// The fleet's one road search (travel.go), held to the fleet that searches
// shard by shard: a gateway with the road world and one without must serve
// the same bytes on both planes while the kernel's counters show one
// expansion against three, and every way the gateway's guess can be wrong
// — a directed graph, a stale inventory, a filter that remembers what a
// shard forgot — must leave the answer alone.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/eis"
	"ecocharge/internal/experiment"
	"ecocharge/internal/geo"
	"ecocharge/internal/obs"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/trajectory"
	"ecocharge/internal/wire"
)

// swapHandler serves whatever handler it currently holds: a shard that can
// be restarted (an empty cache) or re-stocked (another inventory) under a
// gateway that keeps its address.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }
func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// travelFleet is a three-shard wire fleet behind one gateway.
type travelFleet struct {
	gw     *Gateway
	url    string
	shards []*swapHandler
}

// newTravelFleet starts shard servers over envs (in shard order) and a
// gateway over them that holds world (nil: graph-free), inventories pulled.
func newTravelFleet(t *testing.T, envs []*cknn.Env, world *cknn.Env) *travelFleet {
	t.Helper()
	return newFleetOver(t, envs, Options{Env: world})
}

// newFleetOver is newTravelFleet under the gateway options given.
func newFleetOver(t *testing.T, envs []*cknn.Env, opts Options) *travelFleet {
	t.Helper()
	f := &travelFleet{}
	shards := make([]Shard, len(envs))
	for i, env := range envs {
		sh := &swapHandler{}
		sh.set(eis.NewServer(env, eis.ServerOptions{}).Handler())
		ts := httptest.NewServer(sh)
		t.Cleanup(ts.Close)
		shards[i].URL = ts.URL
		f.shards = append(f.shards, sh)
	}
	gw, err := NewGateway(shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	gw.ProbeAll(context.Background())
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	f.gw, f.url = gw, ts.URL
	return f
}

func shardEnvs(t *testing.T, world *cknn.Env, n int) []*cknn.Env {
	t.Helper()
	envs := make([]*cknn.Env, n)
	for i := range envs {
		var err error
		if envs[i], err = ShardEnv(world, i, n); err != nil {
			t.Fatal(err)
		}
	}
	return envs
}

// post sends one offering request on a plane and returns the body.
func (f *travelFleet) post(t *testing.T, req *eis.OfferingRequest, wirePlane bool) []byte {
	t.Helper()
	var (
		body []byte
		err  error
	)
	contentType := "application/json"
	if wirePlane {
		body, contentType = wire.AppendOfferingRequest(nil, req), wire.ContentType
	} else if body, err = json.Marshal(req); err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, f.url+eis.APIVersion+"/offering", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", contentType)
	if wirePlane {
		hr.Header.Set("Accept", wire.ContentType)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get(degradedHeader) != "" {
		t.Fatalf("offering answered %d (degraded %q): %.300s", resp.StatusCode, resp.Header.Get(degradedHeader), buf.Bytes())
	}
	return buf.Bytes()
}

// kernelSearches is how many network expansions the process has started.
func kernelSearches() uint64 {
	r := obs.Default()
	return r.Counter("roadnet_expansions_total").Value() + r.Counter("roadnet_many_expansions_total").Value()
}

// randomOffering draws an anchor on the graph, weights, k and R.
func randomOffering(rng *rand.Rand, world *cknn.Env, now time.Time) eis.OfferingRequest {
	p := world.Graph.Node(roadnet.NodeID(rng.Intn(world.Graph.NumNodes()))).P
	return eis.OfferingRequest{
		Lat: p.Lat + (rng.Float64()-0.5)/500, Lon: p.Lon + (rng.Float64()-0.5)/500,
		K: 1 + rng.Intn(8), RadiusM: []float64{0, 2500, 8000, 20000, 50000}[rng.Intn(5)],
		Weights: eis.WeightsJSON{L: 0.1 + rng.Float64(), A: 0.1 + rng.Float64(), D: 0.1 + rng.Float64()},
		Now:     now, ETA: now.Add(time.Duration(rng.Intn(90)) * time.Minute),
	}
}

// compareFleets sends n random offerings to both fleets, first on one plane
// (a miss everywhere) and then on the other (a hit everywhere), requires the
// same bytes from both, and returns the expansions each fleet's misses
// started and the blocks the searching one sent.
func compareFleets(t *testing.T, world *cknn.Env, with, without *travelFleet, now time.Time, n int) (searchesWith, searchesWithout, supplied uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	entries := 0
	for i := 0; i < n; i++ {
		req := randomOffering(rng, world, now)
		wireFirst := i%2 == 0
		s0, b0 := kernelSearches(), met.travelSupplied.Value()
		got := with.post(t, &req, wireFirst)
		s1 := kernelSearches()
		supplied += met.travelSupplied.Value() - b0
		want := without.post(t, &req, wireFirst)
		s2 := kernelSearches()
		searchesWith, searchesWithout = searchesWith+s1-s0, searchesWithout+s2-s1
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d %+v: the searching gateway's miss differs\nwith:    %.300s\nwithout: %.300s", i, req, got, want)
		}
		gotHit, wantHit := with.post(t, &req, !wireFirst), without.post(t, &req, !wireFirst)
		if !bytes.Equal(gotHit, wantHit) {
			t.Fatalf("request %d %+v: the searching gateway's hit differs\nwith:    %.300s\nwithout: %.300s", i, req, gotHit, wantHit)
		}
		if s3 := kernelSearches(); s3 != s2 {
			t.Fatalf("request %d: the cache hits started %d expansions", i, s3-s2)
		}
		var resp eis.OfferingResponse
		if err := json.Unmarshal(map[bool][]byte{true: gotHit, false: got}[wireFirst], &resp); err != nil {
			t.Fatal(err)
		}
		entries += len(resp.Entries)
	}
	if entries < n {
		t.Fatalf("%d entries over %d tables; the comparison is vacuous", entries, n)
	}
	return searchesWith, searchesWithout, supplied
}

// TestFleetTravelOneSearchPerRanking is the property on the benchmark's own
// world, the undirected Oldenburg graph with its thousand chargers.
func TestFleetTravelOneSearchPerRanking(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the Oldenburg scenario twice over")
	}
	sc, err := experiment.BuildScenario("Oldenburg", 0.001, 42)
	if err != nil {
		t.Fatal(err)
	}
	world := sc.Env
	with := newTravelFleet(t, shardEnvs(t, world, 3), world)
	without := newTravelFleet(t, shardEnvs(t, world, 3), nil)
	const n = 24
	one, three, supplied := compareFleets(t, world, with, without, sc.Start, n)
	if one != n || three != 3*n || supplied != 3*n {
		t.Fatalf("%d rankings: %d expansions with the road world at the gateway (want %d), %d without (want %d), %d blocks sent (want %d)",
			n, one, n, three, 3*n, supplied, 3*n)
	}
}

// oneWayTwin is world on the same road graph plus one one-way arc far too
// long to lie on a shortest path: every distance is world's, but the graph
// is no longer symmetric.
func oneWayTwin(t *testing.T, world *cknn.Env) *cknn.Env {
	t.Helper()
	g := world.Graph
	out := roadnet.NewGraph(g.NumNodes(), g.NumEdges()+1)
	for n := 0; n < g.NumNodes(); n++ {
		out.AddNode(g.Node(roadnet.NodeID(n)).P)
	}
	edges := g.Edges()
	for _, e := range edges {
		out.AddEdge(e.From, e.To, e.Length, e.Class)
	}
	out.AddEdge(edges[0].From, edges[0].To, 1e12, edges[0].Class)
	out.Freeze()
	if out.Symmetric() {
		t.Fatal("a graph with a one-way arc reports Symmetric")
	}
	twin := *world
	twin.Graph = out
	return &twin
}

// TestFleetTravelDirectedGraphDeclines: on a directed graph a ranking's
// return leg is a search of its own, so the gateway holds the world and
// leaves every search to the shards: no block, two expansions a shard, the
// same bytes.
func TestFleetTravelDirectedGraphDeclines(t *testing.T) {
	world := oneWayTwin(t, testEnv(t))
	with := newTravelFleet(t, shardEnvs(t, world, 3), world)
	without := newTravelFleet(t, shardEnvs(t, world, 3), nil)
	const n = 8
	a, b, supplied := compareFleets(t, world, with, without, fixedNow, n)
	if a != 6*n || b != 6*n || supplied != 0 {
		t.Fatalf("%d rankings on a directed graph: %d and %d expansions (want %d each), %d blocks sent (want 0)", n, a, b, 6*n, supplied)
	}
}

// TestFleetTravelWorldMismatchDeclines: a gateway started on another world
// (here: another traffic seed) never lets its search stand in for a
// shard's.
func TestFleetTravelWorldMismatchDeclines(t *testing.T) {
	world := testEnv(t)
	other := *world
	tm := *world.Traffic
	tm.Seed++
	other.Traffic = &tm
	with := newTravelFleet(t, shardEnvs(t, world, 3), &other)
	without := newTravelFleet(t, shardEnvs(t, world, 3), nil)
	const n = 6
	a, b, supplied := compareFleets(t, world, with, without, fixedNow, n)
	if a != 3*n || b != 3*n || supplied != 0 {
		t.Fatalf("%d rankings under a gateway of another world: %d and %d expansions (want %d each), %d blocks sent (want 0)", n, a, b, 3*n, supplied)
	}
}

// TestFleetTravelStaleInventory: shard 0 gains a charger after the gateway
// pulled its inventory. The block does not cover it, so shard 0 discards the
// block and searches for itself while the others build on theirs; the answer
// is the one a single EIS over the new inventory gives.
func TestFleetTravelStaleInventory(t *testing.T) {
	world := testEnv(t)
	envs := shardEnvs(t, world, 3)
	// The world before: shard 0 is one charger short.
	// The late charger is alone on its node: coverage goes by node, and a
	// neighbour of the same site would cover for it.
	own := envs[0].Chargers.All()
	sites := make(map[roadnet.NodeID]int)
	for _, c := range world.Chargers.All() {
		sites[c.Node]++
	}
	var late charger.Charger
	var rest []charger.Charger
	for _, c := range own {
		if late.ID == 0 && sites[c.Node] == 1 {
			late = c
		} else {
			rest = append(rest, c)
		}
	}
	before, err := charger.NewSet(rest)
	if err != nil || late.ID == 0 {
		t.Fatalf("no charger of shard 0 is alone on its node (%v)", err)
	}
	short := *envs[0]
	short.Chargers = before
	f := newTravelFleet(t, []*cknn.Env{&short, envs[1], envs[2]}, world)
	f.shards[0].set(eis.NewServer(envs[0], eis.ServerOptions{}).Handler()) // the charger arrives

	single := httptest.NewServer(eis.NewServer(world, eis.ServerOptions{}).Handler())
	t.Cleanup(single.Close)
	ref := &travelFleet{url: single.URL}

	// Not at the late charger itself: the block always covers the anchor.
	center := world.Graph.Bounds().Center()
	if world.Graph.NearestNode(center) == late.Node {
		t.Fatal("the late charger sits on the anchor; pick another anchor")
	}
	req := eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, K: 80, RadiusM: 50000, Weights: eis.WeightsJSON{L: 1, A: 2, D: 3}, Now: fixedNow}
	used := obs.Default().Counter("eis_travel_used_total")
	rejected := obs.Default().Counter("eis_travel_rejected_total")
	s0, u0, r0 := kernelSearches(), used.Value(), rejected.Value()
	got := f.post(t, &req, true)
	if s, u, r := kernelSearches()-s0, used.Value()-u0, rejected.Value()-r0; s != 2 || u != 2 || r != 1 {
		t.Fatalf("%d expansions, %d blocks used, %d rejected; want the gateway's and shard 0's searches, 2 used, 1 rejected", s, u, r)
	}
	want := ref.post(t, &req, true)
	if !bytes.Equal(got, want) {
		t.Fatalf("the fleet with a stale inventory differs from a single EIS\nfleet:  %.300s\nsingle: %.300s", got, want)
	}
	var resp eis.OfferingResponse
	if err := wire.DecodeOfferingResponse(got, &resp); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range resp.Entries {
		found = found || e.ChargerID == late.ID
	}
	if !found {
		t.Fatalf("charger %d, which the block did not cover, is not in a table of every charger", late.ID)
	}
}

// TestFleetTravelFilterFalseSeen: the shards restart (empty caches) under a
// gateway whose filter still remembers the key. It sends no block, each
// shard searches for itself, and the answer is the one the first request
// got.
func TestFleetTravelFilterFalseSeen(t *testing.T) {
	world := testEnv(t)
	envs := shardEnvs(t, world, 3)
	f := newTravelFleet(t, envs, world)
	center := world.Graph.Bounds().Center()
	req := eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, K: 5, Weights: eis.WeightsJSON{L: 3, A: 1, D: 1}, Now: fixedNow}

	s0, b0 := kernelSearches(), met.travelSupplied.Value()
	first := f.post(t, &req, true)
	if s, b := kernelSearches()-s0, met.travelSupplied.Value()-b0; s != 1 || b != 3 {
		t.Fatalf("first request: %d expansions and %d blocks, want 1 and 3", s, b)
	}
	for i, sh := range f.shards {
		sh.set(eis.NewServer(envs[i], eis.ServerOptions{}).Handler())
	}
	s0, b0 = kernelSearches(), met.travelSupplied.Value()
	again := f.post(t, &req, true)
	if s, b := kernelSearches()-s0, met.travelSupplied.Value()-b0; s != 3 || b != 0 {
		t.Fatalf("after the shards lost their caches: %d expansions and %d blocks, want 3 and 0", s, b)
	}
	if !bytes.Equal(first, again) {
		t.Fatalf("the answer changed when the shards searched for themselves\nfirst: %.300s\nagain: %.300s", first, again)
	}

	// A wasted block is counted: the filter forgets (a fresh pull), the
	// shards have not.
	f.gw.members[0].stale.Store(true) // the next probe re-pulls shard 0
	f.gw.ProbeAll(context.Background())
	w0 := met.travelWasted.Value()
	if hit := f.post(t, &req, true); bytes.Equal(hit, again) {
		t.Fatal("the repeat was not served from the shards' caches")
	}
	if w := met.travelWasted.Value() - w0; w != 1 {
		t.Fatalf("%d wasted blocks counted, want shard 0's", w)
	}
}

// TestFleetTravelBlockIsNotTheClientsToSend: a travel block in a client's
// request is a 400 at the gateway, with or without the road world, and
// reaches no shard.
func TestFleetTravelBlockIsNotTheClientsToSend(t *testing.T) {
	world := testEnv(t)
	center := world.Graph.Bounds().Center()
	req := eis.OfferingRequest{
		Lat: center.Lat, Lon: center.Lon, Now: fixedNow,
		Travel: &wire.TravelBlock{ScaleLo: 1, ScaleHi: 1, Nodes: []roadnet.NodeID{0}, Seconds: []float64{0}},
	}
	for name, env := range map[string]*cknn.Env{"graph-free": nil, "with the world": world} {
		f := newTravelFleet(t, shardEnvs(t, world, 3), env)
		sent := met.shardRequests.Value()
		hr, err := http.NewRequest(http.MethodPost, f.url+eis.APIVersion+"/offering", bytes.NewReader(wire.AppendOfferingRequest(nil, &req)))
		if err != nil {
			t.Fatal(err)
		}
		hr.Header.Set("Content-Type", wire.ContentType)
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || met.shardRequests.Value() != sent {
			t.Fatalf("%s: answered %d after %d shard exchanges, want 400 after none", name, resp.StatusCode, met.shardRequests.Value()-sent)
		}
	}
}

// TestSeenFilter pins the filter's contract as far as it has one: a key is
// seen for its TTL in request time and not after, other keys are not seen,
// time running backwards does not expire anything, a full set keeps taking
// keys, and the keys that were asked for again outlive any number that were
// not.
func TestSeenFilter(t *testing.T) {
	var f seenFilter
	const ttl = 5 * time.Minute
	now := fixedNow
	key := uint64(0xdeadbeefcafe0123)
	if f.observe(key, now, ttl) {
		t.Fatal("an empty filter has seen a key")
	}
	for _, at := range []time.Time{now, now.Add(ttl), now.Add(-time.Hour)} {
		if !f.observe(key, at, ttl) {
			t.Fatalf("the key is not seen at %v, within its TTL of %v", at, now)
		}
	}
	if f.observe(key^1<<40, now, ttl) {
		t.Fatal("another key of the same set is seen")
	}
	if f.observe(key, now.Add(ttl+time.Second), ttl) {
		t.Fatal("the key is still seen past its TTL")
	}
	if !f.observe(key, now.Add(ttl+2*time.Second), ttl) {
		t.Fatal("the key was not recorded again when it expired")
	}

	// One set (5), fingerprints of their own. Three cells that are asked for
	// again, then a flood of one-shot keys: the cells are still there, and so
	// is the last of the flood.
	f = seenFilter{}
	inSet5 := func(i uint64) uint64 { return (2*i+1)<<33 | 5 }
	cells := []uint64{inSet5(1), inSet5(2), inSet5(3)}
	for round := 0; round < 2; round++ {
		for _, c := range cells {
			if f.observe(c, now, ttl) != (round > 0) {
				t.Fatalf("cell %x round %d: wrong verdict", c, round)
			}
		}
	}
	for i := uint64(100); i < 100+20*filterWays; i++ {
		if f.observe(inSet5(i), now, ttl) {
			t.Fatalf("one-shot key %d was seen before it was sent", i)
		}
	}
	if !f.observe(inSet5(100+20*filterWays-1), now, ttl) {
		t.Fatal("the last one-shot key was not recorded")
	}
	for _, c := range cells {
		if !f.observe(c, now, ttl) {
			t.Fatalf("cell %x was dropped for keys nobody asked for twice", c)
		}
	}
	// A set of nothing but keys that came back still takes a new one.
	f = seenFilter{}
	for round := 0; round < 2; round++ {
		for i := uint64(1); i <= filterWays; i++ {
			f.observe(inSet5(i), now, ttl)
		}
	}
	if f.observe(inSet5(99), now, ttl) || !f.observe(inSet5(99), now, ttl) {
		t.Fatal("a set full of returning keys refused a new key")
	}
}

// TestSeenFilterConcurrent: handlers share a shard's filter without a lock.
// Racing writers to one set may cost each other a key; a key whose set
// nobody else writes to is seen from its second observation on, whatever
// the interleaving.
func TestSeenFilterConcurrent(t *testing.T) {
	var f seenFilter
	const goroutines, keys = 8, 64
	var wg sync.WaitGroup
	for g := uint64(0); g < goroutines; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for k := uint64(0); k < keys; k++ {
					// Sixty-four sets of its own per goroutine.
					key := (2*g+1)<<33 | (g*keys + k)
					if seen := f.observe(key, fixedNow, time.Minute); seen != (round > 0) {
						t.Errorf("goroutine %d key %d round %d: seen=%v", g, k, round, seen)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// ---- trips: one road search a computed segment (supplyTrip) ----

// tripRequest is the benchmark's trip request over a routed trip: five
// waypoints, its first and last path node and three interior ones.
func tripRequest(g *roadnet.Graph, trip trajectory.Trip, k int, radiusM, reuseM, segLenM float64) []byte {
	req := eis.TripOfferingRequest{Depart: trip.Depart, K: k, RadiusM: radiusM, ReuseDistM: reuseM, SegmentLenM: segLenM}
	nodes := trip.Path.Nodes
	for frac := 0; frac <= 4; frac++ {
		p := g.Node(nodes[(len(nodes)-1)*frac/4]).P
		req.Waypoints = append(req.Waypoints, eis.LatLon{Lat: p.Lat, Lon: p.Lon})
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}

// routedTrips draws n routed trips of at least minNodes path nodes.
func routedTrips(t *testing.T, g *roadnet.Graph, seed int64, n, minNodes int, depart time.Time) []trajectory.Trip {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var out []trajectory.Trip
	for try := 0; len(out) < n && try < 100*n; try++ {
		a, b := roadnet.NodeID(rng.Intn(g.NumNodes())), roadnet.NodeID(rng.Intn(g.NumNodes()))
		if p, ok := g.ShortestPath(a, b, roadnet.DistanceWeight); ok && len(p.Nodes) >= minNodes {
			out = append(out, trajectory.Trip{ID: int64(len(out)), Path: p, Depart: depart})
		}
	}
	if len(out) < n {
		t.Fatalf("drew %d routable trips of %d", len(out), n)
	}
	return out
}

// tripCounts are the counters a trip moves: the blocks' and, for the routes
// handed over, routesUsed and routesRejected.
type tripCounts struct {
	legs, supplied, used, rejected, exchanges uint64
	routesUsed, routesRejected                uint64
}

func readTripCounts() tripCounts {
	r := obs.Default()
	return tripCounts{
		legs:     r.Counter("roadnet_many_expansions_total").Value(),
		supplied: met.travelSupplied.Value(), exchanges: met.shardRequests.Value(),
		used: r.Counter("eis_travel_used_total").Value(), rejected: r.Counter("eis_travel_rejected_total").Value(),
		routesUsed: r.Counter("eis_route_used_total").Value(), routesRejected: r.Counter("eis_route_rejected_total").Value(),
	}
}

func (c tripCounts) since(b tripCounts) tripCounts {
	return tripCounts{c.legs - b.legs, c.supplied - b.supplied, c.used - b.used, c.rejected - b.rejected, c.exchanges - b.exchanges,
		c.routesUsed - b.routesUsed, c.routesRejected - b.routesRejected}
}

func (c tripCounts) plus(b tripCounts) tripCounts {
	return tripCounts{c.legs + b.legs, c.supplied + b.supplied, c.used + b.used, c.rejected + b.rejected, c.exchanges + b.exchanges,
		c.routesUsed + b.routesUsed, c.routesRejected + b.routesRejected}
}

// postTrip sends one trip request and returns the answer and what it moved.
func (f *travelFleet) postTrip(t *testing.T, body []byte) (int, []byte, http.Header, tripCounts) {
	t.Helper()
	before := readTripCounts()
	status, got, header := doReq(t, f.url, http.MethodPost, eis.APIVersion+"/offering/trip", body)
	return status, got, header, readTripCounts().since(before)
}

// computedSegments counts the segments of a trip answer no shard adapted,
// and its entries.
func computedSegments(t *testing.T, body []byte) (computed, entries int) {
	t.Helper()
	var resp eis.TripOfferingResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("trip answer: %v: %.300s", err, body)
	}
	for _, seg := range resp.Segments {
		if !seg.Adapted {
			computed++
		}
		entries += len(seg.Entries)
	}
	return computed, entries
}

// compareTripFleets sends the trips to a fleet whose gateway holds the road
// world and to one that does not, requires the same bytes from both, and
// returns what each moved, and the computed segments.
func compareTripFleets(t *testing.T, with, without *travelFleet, bodies [][]byte) (a, b tripCounts, computed int) {
	t.Helper()
	entries := 0
	for i, body := range bodies {
		gs, got, gh, ca := with.postTrip(t, body)
		ws, want, wh, cb := without.postTrip(t, body)
		if gs != http.StatusOK || ws != http.StatusOK || !bytes.Equal(got, want) || gh.Get(degradedHeader) != wh.Get(degradedHeader) {
			t.Fatalf("trip %d: the planning gateway's answer differs\nwith:    %d %q %.300s\nwithout: %d %q %.300s",
				i, gs, gh.Get(degradedHeader), got, ws, wh.Get(degradedHeader), want)
		}
		c, e := computedSegments(t, got)
		computed, entries = computed+c, entries+e
		a, b = a.plus(ca), b.plus(cb)
	}
	if entries < len(bodies) {
		t.Fatalf("%d entries over %d trips; the comparison is vacuous", entries, len(bodies))
	}
	return a, b, computed
}

// TestFleetTripOneSearchPerSegment is the property on the benchmark's own
// world and trips: the same JSON from a gateway that plans the trip and one
// that forwards it, two expansions a computed segment against six, every
// block built on, and one route a trip handed to each shard and followed.
func TestFleetTripOneSearchPerSegment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the Oldenburg scenario")
	}
	sc, err := experiment.BuildScenario("Oldenburg", 0.001, 42)
	if err != nil {
		t.Fatal(err)
	}
	world := sc.Env
	with := newTravelFleet(t, shardEnvs(t, world, 3), world)
	without := newTravelFleet(t, shardEnvs(t, world, 3), nil)
	var bodies [][]byte
	for i, trip := range routedTrips(t, world.Graph, 11, 10, 40, sc.Start) {
		// The benchmark's request, and a shorter Q and segments now and then.
		reuse, segLen := 0.0, 4000.0
		if i%3 == 2 {
			reuse, segLen = 1500, 1500
		}
		bodies = append(bodies, tripRequest(world.Graph, trip, 5, 50000, reuse, segLen))
	}
	a, b, computed := compareTripFleets(t, with, without, bodies)
	n := uint64(computed)
	if n < uint64(len(bodies)) || a.legs != 2*n || b.legs != 6*n || a.supplied != 3*n || a.used != 3*n || a.rejected != 0 || b.supplied+b.used+b.rejected != 0 {
		t.Fatalf("%d computed segments over %d trips: the planning gateway's fleet started %d expansions (want %d), sent %d blocks, %d used, %d rejected (want %d, %d, 0); the forwarding one %d expansions (want %d) and %d blocks",
			n, len(bodies), a.legs, 2*n, a.supplied, a.used, a.rejected, 3*n, 3*n, b.legs, 6*n, b.supplied)
	}
	if trips := uint64(len(bodies)); a.routesUsed != 3*trips || a.routesRejected != 0 || b.routesUsed+b.routesRejected != 0 {
		t.Fatalf("%d trips: the planning gateway's shards followed %d routes and refused %d (want %d and 0); the forwarding one's saw %d",
			trips, a.routesUsed, a.routesRejected, 3*trips, b.routesUsed+b.routesRejected)
	}
}

// routeCorrupter is a shard handler that takes a wire trip request's route
// out in transit, changes it, and passes the request on; the blocks travel
// as they came.
func routeCorrupter(t *testing.T, next http.Handler, corrupt func([]roadnet.NodeID) []roadnet.NodeID) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != eis.APIVersion+"/offering/trip" || !wire.IsWire(r.Header.Get("Content-Type")) {
			next.ServeHTTP(w, r)
			return
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(r.Body); err != nil {
			t.Error(err)
		}
		var req eis.TripOfferingRequest
		if err := wire.DecodeTripRequest(buf.Bytes(), &req); err != nil || req.Route == nil {
			t.Errorf("the gateway's request to the shard does not decode to a routed trip (%v)", err)
		}
		req.Route = corrupt(slices.Clone(req.Route))
		body := wire.AppendTripRequest(nil, &req)
		r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
		next.ServeHTTP(w, r)
	})
}

// TestFleetTripCorruptRoute: a route that reaches a shard changed — a step
// that is no arc, a node the graph does not have, cut short, run backwards —
// is refused by that shard, which routes the trip itself and builds on its
// blocks all the same; the merge's skeleton check passes and the client gets
// the bytes of a gateway that forwards the trip.
func TestFleetTripCorruptRoute(t *testing.T) {
	world := testEnv(t)
	envs := shardEnvs(t, world, 3)
	with := newTravelFleet(t, envs, world)
	without := newTravelFleet(t, shardEnvs(t, world, 3), nil)
	trips := routedTrips(t, world.Graph, 19, 3, 20, fixedNow)
	g := world.Graph
	for name, corrupt := range map[string]func([]roadnet.NodeID) []roadnet.NodeID{
		"a node dropped": func(r []roadnet.NodeID) []roadnet.NodeID {
			// The first interior node whose neighbours on the route are not
			// joined by an arc of their own.
			for i := 1; i+1 < len(r); i++ {
				if _, arc := g.PathWeight([]roadnet.NodeID{r[i-1], r[i+1]}, roadnet.DistanceWeight); !arc {
					return slices.Delete(r, i, i+1)
				}
			}
			t.Error("every node of the route can be skipped by an arc")
			return r
		},
		"a node the graph does not have": func(r []roadnet.NodeID) []roadnet.NodeID {
			return slices.Insert(r, len(r)/2, roadnet.NodeID(g.NumNodes()))
		},
		"cut short": func(r []roadnet.NodeID) []roadnet.NodeID { return r[:len(r)-1] },
		"reversed":  func(r []roadnet.NodeID) []roadnet.NodeID { slices.Reverse(r); return r },
	} {
		with.shards[1].set(routeCorrupter(t, eis.NewServer(envs[1], eis.ServerOptions{}).Handler(), corrupt))
		var bodies [][]byte
		for i, trip := range trips {
			bodies = append(bodies, tripRequest(g, trip, 3+i, 8000, 1500, 1500))
		}
		a, _, _ := compareTripFleets(t, with, without, bodies)
		if n := uint64(len(bodies)); a.routesUsed != 2*n || a.routesRejected != n || a.rejected != 0 || a.used != a.supplied {
			t.Fatalf("%s: %d trips, shard 1's route changed in transit: %d routes followed, %d refused (want %d and %d); %d blocks sent, %d used, %d rejected",
				name, n, a.routesUsed, a.routesRejected, 2*n, n, a.supplied, a.used, a.rejected)
		}
	}
}

// TestFleetTripDirectedGraph: a segment's search is two legs wherever it
// runs, so on a directed graph — one whose one-way arc changes no distance,
// and one whose one-way roads make the way back differ from the way out —
// the gateway plans and searches all the same, and the bytes are the same.
func TestFleetTripDirectedGraph(t *testing.T) {
	oneWay := *testEnv(t)
	g := roadnet.NewGraph(300, 900)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		g.AddNode(geo.Point{Lat: 53 + rng.Float64()*0.08, Lon: 8 + rng.Float64()*0.12})
	}
	for i := 0; i < 300; i++ {
		g.AddBidirectional(roadnet.NodeID(i), roadnet.NodeID((i+1)%300), 700, roadnet.ClassLocal)
		g.AddEdge(roadnet.NodeID(i), roadnet.NodeID(rng.Intn(300)), 1500, roadnet.ClassArterial)
	}
	g.Freeze()
	oneWay.Graph = g
	set, err := charger.Generate(g, oneWay.Avail, charger.GenConfig{N: 90, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	oneWay.Chargers = set
	for name, world := range map[string]*cknn.Env{"one arc one-way": oneWayTwin(t, testEnv(t)), "one-way shortcuts": &oneWay} {
		if world.Graph.Symmetric() {
			t.Fatalf("%s: the graph is symmetric", name)
		}
		with := newTravelFleet(t, shardEnvs(t, world, 3), world)
		without := newTravelFleet(t, shardEnvs(t, world, 3), nil)
		var bodies [][]byte
		for i, trip := range routedTrips(t, world.Graph, 5, 6, 8, fixedNow) {
			bodies = append(bodies, tripRequest(world.Graph, trip, 3+i%3, []float64{3000, 8000, 50000}[i%3], []float64{1, 1200, 0}[i%3], 1500))
		}
		a, b, computed := compareTripFleets(t, with, without, bodies)
		// A small radius leaves a shard's table empty now and then, and that
		// shard then computes a segment nobody searched for it.
		n := uint64(computed)
		if a.supplied < 3*uint64(len(bodies)) || a.used != a.supplied || a.rejected != 0 || a.legs >= b.legs || a.legs < 2*n {
			t.Fatalf("%s, %d computed segments over %d trips: %d blocks sent, %d used, %d rejected; %d expansions against %d",
				name, n, len(bodies), a.supplied, a.used, a.rejected, a.legs, b.legs)
		}
	}
}

// TestFleetTripStaleInventory: shard 0 gains a charger after the gateway
// pulled its inventory. Its blocks do not cover the charger, so shard 0
// discards them and searches its segments itself while the others build on
// theirs; the answer is the one the forwarding gateway's fleet gives.
func TestFleetTripStaleInventory(t *testing.T) {
	world := testEnv(t)
	envs := shardEnvs(t, world, 3)
	own := envs[0].Chargers.All()
	sites := make(map[roadnet.NodeID]int)
	for _, c := range world.Chargers.All() {
		sites[c.Node]++
	}
	var late charger.Charger
	var rest []charger.Charger
	for _, c := range own {
		if late.ID == 0 && sites[c.Node] == 1 {
			late = c
		} else {
			rest = append(rest, c)
		}
	}
	before, err := charger.NewSet(rest)
	if err != nil || late.ID == 0 {
		t.Fatalf("no charger of shard 0 is alone on its node (%v)", err)
	}
	short := *envs[0]
	short.Chargers = before
	with := newTravelFleet(t, []*cknn.Env{&short, envs[1], envs[2]}, world)
	with.shards[0].set(eis.NewServer(envs[0], eis.ServerOptions{}).Handler()) // the charger arrives
	without := newTravelFleet(t, envs, nil)

	trip := routedTrips(t, world.Graph, 8, 1, 18, fixedNow)[0]
	for _, n := range trip.Path.Nodes {
		if n == late.Node {
			t.Fatal("the late charger sits on the route, where a segment's end may cover for it; pick another trip")
		}
	}
	body := tripRequest(world.Graph, trip, 200, 50000, 2500, 1500)
	a, b, computed := compareTripFleets(t, with, without, [][]byte{body})
	n := uint64(computed)
	// A segment is two expansions, or one where its anchor is its end; the
	// forwarding fleet runs them on three shards, this one at the gateway and
	// on shard 0.
	if n < 2 || a.supplied != 3*n || a.used != 2*n || a.rejected != n || 3*a.legs != 2*b.legs || b.legs < 3*n {
		t.Fatalf("%d computed segments: %d blocks sent, %d used, %d rejected (want %d, %d, %d); %d expansions, the gateway's and shard 0's, against %d on three shards",
			n, a.supplied, a.used, a.rejected, 3*n, 2*n, n, a.legs, b.legs)
	}
	_, got, _, _ := with.postTrip(t, body)
	if !bytes.Contains(got, []byte(`"charger_id":`+strconv.FormatInt(late.ID, 10)+`,`)) {
		t.Fatalf("charger %d, which no block covered, is in no table of every charger", late.ID)
	}
}

// TestFleetTripDeadShard: with a shard down the gateway plans and searches
// for the others, and the degraded merge and the synthesized entries are
// those of a gateway that forwards the trip.
func TestFleetTripDeadShard(t *testing.T) {
	world := testEnv(t)
	with := newTravelFleet(t, shardEnvs(t, world, 3), world)
	without := newTravelFleet(t, shardEnvs(t, world, 3), nil)
	with.shards[1].set(shardDown)
	without.shards[1].set(shardDown)
	var bodies [][]byte
	for _, trip := range routedTrips(t, world.Graph, 21, 3, 20, fixedNow) {
		bodies = append(bodies, tripRequest(world.Graph, trip, 6, 6000, 2000, 1500))
	}
	for i, body := range bodies {
		gs, got, gh, ca := with.postTrip(t, body)
		ws, want, wh, _ := without.postTrip(t, body)
		if gs != http.StatusOK || ws != http.StatusOK || !bytes.Equal(got, want) || gh.Get(degradedHeader) != "1" || wh.Get(degradedHeader) != "1" {
			t.Fatalf("trip %d with shard 1 down: the planning gateway's answer differs\nwith:    %d %q %.300s\nwithout: %d %q %.300s",
				i, gs, gh.Get(degradedHeader), got, ws, wh.Get(degradedHeader), want)
		}
		if !bytes.Contains(got, []byte(`"degraded":`)) {
			t.Fatalf("trip %d: no entry of the dead shard was synthesized: %.300s", i, got)
		}
		if ca.supplied == 0 || ca.used == 0 || ca.rejected != 0 {
			t.Fatalf("trip %d: %d blocks sent, %d used, %d rejected", i, ca.supplied, ca.used, ca.rejected)
		}
	}
}

// TestFleetTripBlockIsNotTheClientsToSend: the gateway reads a client's trip
// as JSON, which has no place for a travel block or a route, and writes the
// binary request itself: a client's binary request with a block or a route
// is a 400 at the gateway, with or without the road world, and reaches no
// shard.
func TestFleetTripBlockIsNotTheClientsToSend(t *testing.T) {
	world := testEnv(t)
	trip := routedTrips(t, world.Graph, 2, 1, 20, fixedNow)[0]
	var req eis.TripOfferingRequest
	if err := json.Unmarshal(tripRequest(world.Graph, trip, 3, 5000, 0, 1500), &req); err != nil {
		t.Fatal(err)
	}
	withBlock := wire.AppendTripBlock(wire.AppendTripRequest(nil, &req),
		&wire.TripBlock{Segment: 0, Anchor: trip.Path.Nodes[0], Return: trip.Path.Nodes[1], ScaleLo: 1, ScaleHi: 1},
		[]roadnet.NodeID{0}, []float64{0}, []float64{0})
	req.Route = trip.Path.Nodes
	withRoute := wire.AppendTripRequest(nil, &req)
	for name, env := range map[string]*cknn.Env{"graph-free": nil, "with the world": world} {
		f := newTravelFleet(t, shardEnvs(t, world, 3), env)
		for what, body := range map[string][]byte{"a block": withBlock, "a route": withRoute} {
			before := readTripCounts()
			hr, err := http.NewRequest(http.MethodPost, f.url+eis.APIVersion+"/offering/trip", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			hr.Header.Set("Content-Type", wire.ContentType)
			resp, err := http.DefaultClient.Do(hr)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if c := readTripCounts().since(before); resp.StatusCode != http.StatusBadRequest || c.exchanges != 0 || c.used+c.rejected+c.routesUsed+c.routesRejected != 0 {
				t.Fatalf("%s, %s: answered %d after %d shard exchanges, %d blocks and %d routes looked at; want 400 after none",
					name, what, resp.StatusCode, c.exchanges, c.used+c.rejected, c.routesUsed+c.routesRejected)
			}
		}
	}
}

// TestFleetTripConcurrent: trips planned side by side share the gateway's
// world, its members' terms and its pool of fan-out state; each still gets
// the bytes the forwarding gateway's fleet gives it.
func TestFleetTripConcurrent(t *testing.T) {
	world := testEnv(t)
	with := newTravelFleet(t, shardEnvs(t, world, 3), world)
	without := newTravelFleet(t, shardEnvs(t, world, 3), nil)
	var bodies, want [][]byte
	for i, trip := range routedTrips(t, world.Graph, 13, 6, 14, fixedNow) {
		body := tripRequest(world.Graph, trip, 3+i%3, 8000, []float64{1, 1500, 0}[i%3], 1200)
		_, answer, _, _ := without.postTrip(t, body)
		bodies, want = append(bodies, body), append(want, answer)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range bodies {
					j := (i + w) % len(bodies)
					resp, err := http.Post(with.url+eis.APIVersion+"/offering/trip", "application/json", bytes.NewReader(bodies[j]))
					if err != nil {
						t.Error(err)
						return
					}
					var got bytes.Buffer
					_, err = got.ReadFrom(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got.Bytes(), want[j]) {
						t.Errorf("trip %d, sent beside others: %d %v %.200s", j, resp.StatusCode, err, got.Bytes())
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
