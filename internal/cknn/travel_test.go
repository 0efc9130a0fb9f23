package cknn

// Differential suite for the fleet's seam in a stand-alone ranking
// (travel.go): a search run apart from the ranking (SearchTravel, the
// gateway's side) and handed to it as raw travel times (RankOnce's travel,
// the shard's side) must produce the table the ranking's own search
// produces, bit for bit, without a search of its own — and anything less
// than that search must be refused, never built on: the ranking then runs
// its own search.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ecocharge/internal/charger"
	"ecocharge/internal/obs"
	"ecocharge/internal/roadnet"
)

// shardOf restricts env to every n-th charger, offset by i: an inventory
// scattered over the whole map, like a rendezvous partition's.
func shardOf(t testing.TB, env *Env, i, n int) *Env {
	t.Helper()
	var own []charger.Charger
	for j, c := range env.Chargers.All() {
		if j%n == i {
			own = append(own, c)
		}
	}
	set, err := charger.NewSet(own)
	if err != nil {
		t.Fatal(err)
	}
	shard := *env
	shard.Chargers = set
	return &shard
}

// legs is a search's verdicts laid out as slices; back is nil for one leg.
type legs struct {
	nodes     []roadnet.NodeID
	out, back []float64
}

func (l *legs) Len() int { return len(l.nodes) }

func (l *legs) At(i int) (roadnet.NodeID, float64, float64) {
	if l.back == nil {
		return l.nodes[i], l.out[i], l.out[i]
	}
	return l.nodes[i], l.out[i], l.back[i]
}

// supplyFor runs the gateway's side for one query: the search to every
// charger of the whole inventory within the radius plus the anchor, read
// back at the given shard's chargers.
func supplyFor(t testing.TB, world, shard *Env, opts EcoChargeOptions, q Query) (*Travel, bool) {
	t.Helper()
	eq := opts.withDefaults().evalQuery(q)
	var targets []roadnet.NodeID
	for _, c := range world.Chargers.Within(eq.Anchor, eq.RadiusM) {
		targets = append(targets, c.Node)
	}
	ts, ok := SearchTravel(world, opts, q, targets)
	if !ok {
		return nil, false
	}
	defer ts.Release()
	times := &legs{}
	tr := &Travel{Anchor: eq.AnchorNode, Return: roadnet.Invalid, Times: times}
	tr.ScaleLo, tr.ScaleHi = ts.Scales()
	for _, c := range shard.Chargers.Within(eq.Anchor, eq.RadiusM) {
		times.nodes, times.out = append(times.nodes, c.Node), append(times.out, ts.Seconds(c.Node))
	}
	return tr, true
}

// TestSuppliedRankingMatchesOwnSearch: over every symmetric world, random
// anchors, weights, k and radii, each of three shards ranks the same table
// from the one supplied search as from its own, and starts no expansion
// doing so.
func TestSuppliedRankingMatchesOwnSearch(t *testing.T) {
	for name, world := range symmetricEnvs(t) {
		nQueries := 8
		if name == "Oldenburg" {
			nQueries = 3
		}
		rng := rand.New(rand.NewSource(5))
		entries := 0
		for qi, q := range roundTripQueries(world, 13, nQueries) {
			opts := EcoChargeOptions{RadiusM: []float64{3000, 10000, 50000}[rng.Intn(3)]}
			for s := 0; s < 3; s++ {
				shard := shardOf(t, world, s, 3)
				want, _ := RankOnce(shard, opts, q, nil, nil)
				travel, ok := supplyFor(t, world, shard, opts, q)
				if !ok {
					t.Fatalf("%s: SearchTravel declined a round trip on a symmetric graph", name)
				}
				full0, many0 := expansionsStarted()
				noNodes := q // the anchor is the travel times', not the query's
				noNodes.AnchorNode, noNodes.ReturnNode = roadnet.Invalid, roadnet.Invalid
				got, used := RankOnce(shard, opts, noNodes, travel, nil)
				full1, many1 := expansionsStarted()
				if !used {
					t.Fatalf("%s query %d shard %d: the gateway's own search was refused", name, qi, s)
				}
				if full1 != full0 || many1 != many0 {
					t.Fatalf("%s query %d shard %d: a supplied ranking started %d expansions", name, qi, s, full1-full0+many1-many0)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s query %d shard %d: the supplied table differs from the searched one\nsupplied: %v\nsearched: %v",
						name, qi, s, got.IDs(), want.IDs())
				}
				entries += len(got.Entries)
			}
		}
		if entries < nQueries {
			t.Fatalf("%s: %d entries over %d tables; the comparison is vacuous", name, entries, 3*nQueries)
		}
	}
}

// TestSuppliedRankingRefuses: whatever is wrong with the travel times,
// nothing is ranked on them and no search state is kept: the ranking runs
// its own search — from the query's node, or from the node its point snaps
// to when it has none — and returns that search's table.
func TestSuppliedRankingRefuses(t *testing.T) {
	world := testEnv(t)
	shard := shardOf(t, world, 0, 3)
	q := roundTripQueries(world, 21, 1)[0]
	noNodes := q
	noNodes.AnchorNode, noNodes.ReturnNode = roadnet.Invalid, roadnet.Invalid
	opts := EcoChargeOptions{RadiusM: 50000}
	want, _ := RankOnce(shard, opts, q, nil, nil)
	if len(want.Entries) == 0 {
		t.Fatal("the reference table is empty; the comparison is vacuous")
	}
	if got, used := RankOnce(shard, opts, noNodes, nil, nil); used || !reflect.DeepEqual(got, want) {
		t.Fatalf("no travel times and no node: used=%v, table %v, want %v", used, got.IDs(), want.IDs())
	}
	good, ok := supplyFor(t, world, shard, opts, q)
	if !ok {
		t.Fatal("SearchTravel declined")
	}
	if got, used := RankOnce(shard, opts, q, good, nil); !used || !reflect.DeepEqual(got, want) {
		t.Fatalf("the unmodified travel times: used=%v, table %v, want %v", used, got.IDs(), want.IDs())
	}
	goodTimes := good.Times.(*legs)
	edit := func(fn func(*Travel, *legs)) *Travel {
		times := &legs{nodes: append([]roadnet.NodeID(nil), goodTimes.nodes...), out: append([]float64(nil), goodTimes.out...)}
		tr := &Travel{Anchor: good.Anchor, Return: roadnet.Invalid, ScaleLo: good.ScaleLo, ScaleHi: good.ScaleHi, Times: times}
		fn(tr, times)
		return tr
	}
	// Coverage goes by node: drop every entry of the farthest candidate's.
	farthest := goodTimes.nodes[len(goodTimes.nodes)-1]
	if farthest == good.Anchor {
		t.Fatal("the farthest candidate sits on the anchor; draw another query")
	}
	cases := map[string]struct {
		travel *Travel
		env    *Env
		opts   EcoChargeOptions
	}{
		"a candidate is not covered": {edit(func(_ *Travel, l *legs) {
			l.nodes, l.out = nil, nil
			for i, n := range goodTimes.nodes {
				if n != farthest {
					l.nodes, l.out = append(l.nodes, n), append(l.out, goodTimes.out[i])
				}
			}
		}), shard, opts},
		"node out of range":   {edit(func(_ *Travel, l *legs) { l.nodes[0] = roadnet.NodeID(world.Graph.NumNodes()) }), shard, opts},
		"negative node":       {edit(func(_ *Travel, l *legs) { l.nodes[0] = -1 }), shard, opts},
		"anchor out of range": {edit(func(tr *Travel, _ *legs) { tr.Anchor = roadnet.NodeID(world.Graph.NumNodes()) }), shard, opts},
		"no anchor":           {edit(func(tr *Travel, _ *legs) { tr.Anchor = roadnet.Invalid }), shard, opts},
		"NaN time":            {edit(func(_ *Travel, l *legs) { l.out[0] = math.NaN() }), shard, opts},
		"negative time":       {edit(func(_ *Travel, l *legs) { l.out[0] = -1 }), shard, opts},
		"scale zero":          {edit(func(tr *Travel, _ *legs) { tr.ScaleLo = 0 }), shard, opts},
		"scale negative":      {edit(func(tr *Travel, _ *legs) { tr.ScaleLo = -0.5 }), shard, opts},
		"scale NaN":           {edit(func(tr *Travel, _ *legs) { tr.ScaleHi = math.NaN() }), shard, opts},
		"scale infinite":      {edit(func(tr *Travel, _ *legs) { tr.ScaleHi = math.Inf(1) }), shard, opts},
		"band not around 1":   {edit(func(tr *Travel, _ *legs) { tr.ScaleLo, tr.ScaleHi = 1.2, 1.5 }), shard, opts},
		"exact bounds":        {good, shard, EcoChargeOptions{RadiusM: 50000, ExactDerouting: true}},
		"directed graph":      {good, directedTwin(t, shard), opts},
	}
	for name, tc := range cases {
		full0, many0 := expansionsStarted()
		own, _ := RankOnce(tc.env, tc.opts, q, nil, nil)
		full1, many1 := expansionsStarted()
		ownFull, ownMany := full1-full0, many1-many0
		for _, query := range []Query{q, noNodes} {
			full0, many0 := expansionsStarted()
			acquired, released := obs.Default().Counter("roadnet_pool_acquires_total").Value(), obs.Default().Counter("roadnet_pool_releases_total").Value()
			got, used := RankOnce(tc.env, tc.opts, query, tc.travel, nil)
			if used || !reflect.DeepEqual(got, own) {
				t.Errorf("%s (node %d): used=%v, table %v, want its own search's %v", name, query.AnchorNode, used, got.IDs(), own.IDs())
			}
			if full1, many1 := expansionsStarted(); full1-full0 != ownFull || many1-many0 != ownMany {
				t.Errorf("%s (node %d): %d expansions started, its own search starts %d", name, query.AnchorNode, full1-full0+many1-many0, ownFull+ownMany)
			}
			a := obs.Default().Counter("roadnet_pool_acquires_total").Value() - acquired
			if r := obs.Default().Counter("roadnet_pool_releases_total").Value() - released; a != r {
				t.Errorf("%s (node %d): the refusal acquired %d search states and released %d", name, query.AnchorNode, a, r)
			}
		}
	}
}

// TestSearchTravelDeclines: under exact bounds there is no single set of
// travel times with a band around it, and then nothing is searched. A ranking
// that returns elsewhere, or over a directed graph, is searched in two legs.
func TestSearchTravelDeclines(t *testing.T) {
	world := testEnv(t)
	q := roundTripQueries(world, 3, 1)[0]
	elsewhere := q
	elsewhere.ReturnNode = (q.AnchorNode + 5) % roadnet.NodeID(world.Graph.NumNodes())
	for name, tc := range map[string]struct {
		env  *Env
		opts EcoChargeOptions
		q    Query
		legs uint64
	}{
		"round trip":        {world, EcoChargeOptions{}, q, 1},
		"directed graph":    {directedTwin(t, world), EcoChargeOptions{}, q, 2},
		"returns elsewhere": {world, EcoChargeOptions{}, elsewhere, 2},
		"exact bounds":      {world, EcoChargeOptions{ExactDerouting: true}, q, 0},
	} {
		full0, many0 := expansionsStarted()
		ts, ok := SearchTravel(tc.env, tc.opts, tc.q, []roadnet.NodeID{tc.q.AnchorNode, tc.q.ReturnNode})
		if ok != (tc.legs > 0) {
			t.Errorf("%s: SearchTravel ran=%v", name, ok)
		}
		if ok && (ts.Seconds(tc.q.AnchorNode) > 0 || ts.ReturnSeconds(tc.q.ReturnNode) > 0) {
			t.Errorf("%s: the legs do not start at the anchor and end at the return node", name)
		}
		ts.Release()
		if full1, many1 := expansionsStarted(); full1 != full0 || many1-many0 != tc.legs {
			t.Errorf("%s: %d expansions started, want %d", name, full1-full0+many1-many0, tc.legs)
		}
	}
}

// TestRoadWorldTellsWorldsApart: the same graph and traffic model hash
// alike however the rest of the environment differs; another graph, one
// more arc or another traffic seed do not.
func TestRoadWorldTellsWorldsApart(t *testing.T) {
	world := testEnv(t)
	if a, b := world.RoadWorld(), shardOf(t, world, 1, 3).RoadWorld(); a != b {
		t.Fatalf("a shard of the world hashes %x, the world %x", b, a)
	}
	otherTraffic := *world
	tm := *world.Traffic
	tm.Seed++
	otherTraffic.Traffic = &tm
	for name, other := range map[string]*Env{
		"one more arc":         directedTwin(t, world),
		"another graph":        envOn(t, randomUndirectedGraph(1, 400), 10, 1),
		"another traffic seed": &otherTraffic,
	} {
		if other.RoadWorld() == world.RoadWorld() {
			t.Errorf("%s: same RoadWorld", name)
		}
	}
}
