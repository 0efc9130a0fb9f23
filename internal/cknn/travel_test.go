package cknn

// Differential suite for the fleet's seam in a stand-alone ranking
// (travel.go): a search run apart from the ranking (SearchTravel, the
// gateway's side) and handed to it as raw travel times (RankOnceSupplied,
// the shard's side) must produce the table the ranking's own search
// produces, bit for bit, without a search of its own — and anything less
// than that search must be refused, never built on.

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
	tr := &Travel{Anchor: eq.AnchorNode}
	tr.ScaleLo, tr.ScaleHi = ts.Scales()
	for _, c := range shard.Chargers.Within(eq.Anchor, eq.RadiusM) {
		tr.Nodes, tr.Seconds = append(tr.Nodes, c.Node), append(tr.Seconds, ts.Seconds(c.Node))
	}
	return tr, true
}

// TestSuppliedRankingMatchesOwnSearch: over every symmetric world, random
// anchors, weights, k and radii, sequential and parallel filtering, each of
// three shards ranks the same table from the one supplied search as from its
// own, and starts no expansion doing so.
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
			workers := 1 + 3*(qi%2)
			for s := 0; s < 3; s++ {
				shard := shardOf(t, world, s, 3)
				want := RankOnce(shard, opts, workers, q)
				travel, ok := supplyFor(t, world, shard, opts, q)
				if !ok {
					t.Fatalf("%s: SearchTravel declined a round trip on a symmetric graph", name)
				}
				full0, many0 := expansionsStarted()
				noNodes := q // the anchor is the travel times', not the query's
				noNodes.AnchorNode, noNodes.ReturnNode = roadnet.Invalid, roadnet.Invalid
				got, used := RankOnceSupplied(shard, opts, workers, noNodes, travel)
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
// nothing is ranked on them, no search state is kept, and no expansion is
// started: the caller is told to rank for itself.
func TestSuppliedRankingRefuses(t *testing.T) {
	world := testEnv(t)
	shard := shardOf(t, world, 0, 3)
	q := roundTripQueries(world, 21, 1)[0]
	opts := EcoChargeOptions{RadiusM: 50000}
	want := RankOnce(shard, opts, 1, q)
	if len(want.Entries) == 0 {
		t.Fatal("the reference table is empty; the comparison is vacuous")
	}
	good, ok := supplyFor(t, world, shard, opts, q)
	if !ok {
		t.Fatal("SearchTravel declined")
	}
	if got, used := RankOnceSupplied(shard, opts, 1, q, good); !used || !reflect.DeepEqual(got, want) {
		t.Fatalf("the unmodified travel times: used=%v, table %v, want %v", used, got.IDs(), want.IDs())
	}
	edit := func(fn func(*Travel)) *Travel {
		tr := &Travel{
			Anchor: good.Anchor,
			Nodes:  append([]roadnet.NodeID(nil), good.Nodes...), Seconds: append([]float64(nil), good.Seconds...),
			ScaleLo: good.ScaleLo, ScaleHi: good.ScaleHi,
		}
		fn(tr)
		return tr
	}
	// Coverage goes by node: drop every entry of the farthest candidate's.
	farthest := good.Nodes[len(good.Nodes)-1]
	if farthest == good.Anchor {
		t.Fatal("the farthest candidate sits on the anchor; draw another query")
	}
	cases := map[string]struct {
		travel *Travel
		env    *Env
		opts   EcoChargeOptions
	}{
		"a candidate is not covered": {edit(func(tr *Travel) {
			tr.Nodes, tr.Seconds = nil, nil
			for i, n := range good.Nodes {
				if n != farthest {
					tr.Nodes, tr.Seconds = append(tr.Nodes, n), append(tr.Seconds, good.Seconds[i])
				}
			}
		}), shard, opts},
		"lengths differ":      {edit(func(tr *Travel) { tr.Seconds = tr.Seconds[1:] }), shard, opts},
		"node out of range":   {edit(func(tr *Travel) { tr.Nodes[0] = roadnet.NodeID(world.Graph.NumNodes()) }), shard, opts},
		"negative node":       {edit(func(tr *Travel) { tr.Nodes[0] = -1 }), shard, opts},
		"anchor out of range": {edit(func(tr *Travel) { tr.Anchor = roadnet.NodeID(world.Graph.NumNodes()) }), shard, opts},
		"no anchor":           {edit(func(tr *Travel) { tr.Anchor = roadnet.Invalid }), shard, opts},
		"NaN time":            {edit(func(tr *Travel) { tr.Seconds[0] = math.NaN() }), shard, opts},
		"negative time":       {edit(func(tr *Travel) { tr.Seconds[0] = -1 }), shard, opts},
		"scale zero":          {edit(func(tr *Travel) { tr.ScaleLo = 0 }), shard, opts},
		"scale negative":      {edit(func(tr *Travel) { tr.ScaleLo = -0.5 }), shard, opts},
		"scale NaN":           {edit(func(tr *Travel) { tr.ScaleHi = math.NaN() }), shard, opts},
		"scale infinite":      {edit(func(tr *Travel) { tr.ScaleHi = math.Inf(1) }), shard, opts},
		"band not around 1":   {edit(func(tr *Travel) { tr.ScaleLo, tr.ScaleHi = 1.2, 1.5 }), shard, opts},
		"exact bounds":        {good, shard, EcoChargeOptions{RadiusM: 50000, ExactDerouting: true}},
		"directed graph":      {good, directedTwin(t, shard), opts},
	}
	for name, tc := range cases {
		full0, many0 := expansionsStarted()
		acquired, released := obs.Default().Counter("roadnet_pool_acquires_total").Value(), obs.Default().Counter("roadnet_pool_releases_total").Value()
		got, used := RankOnceSupplied(tc.env, tc.opts, 1, q, tc.travel)
		if used || got.Entries != nil {
			t.Errorf("%s: ranked %v on the travel times (used=%v)", name, got.IDs(), used)
		}
		if full1, many1 := expansionsStarted(); full1 != full0 || many1 != many0 {
			t.Errorf("%s: a refusal started an expansion", name)
		}
		a := obs.Default().Counter("roadnet_pool_acquires_total").Value() - acquired
		if r := obs.Default().Counter("roadnet_pool_releases_total").Value() - released; a != r {
			t.Errorf("%s: the refusal acquired %d search states and released %d", name, a, r)
		}
	}
}

// TestSearchTravelDeclines: no single set of travel times exists where a
// ranking takes more than one expansion, and then nothing is searched.
func TestSearchTravelDeclines(t *testing.T) {
	world := testEnv(t)
	q := roundTripQueries(world, 3, 1)[0]
	elsewhere := q
	elsewhere.ReturnNode = (q.AnchorNode + 5) % roadnet.NodeID(world.Graph.NumNodes())
	for name, tc := range map[string]struct {
		env  *Env
		opts EcoChargeOptions
		q    Query
	}{
		"directed graph":    {directedTwin(t, world), EcoChargeOptions{}, q},
		"exact bounds":      {world, EcoChargeOptions{ExactDerouting: true}, q},
		"returns elsewhere": {world, EcoChargeOptions{}, elsewhere},
	} {
		full0, many0 := expansionsStarted()
		if ts, ok := SearchTravel(tc.env, tc.opts, tc.q, []roadnet.NodeID{tc.q.AnchorNode}); ok {
			ts.Release()
			t.Errorf("%s: SearchTravel ran", name)
		}
		if full1, many1 := expansionsStarted(); full1 != full0 || many1 != many0 {
			t.Errorf("%s: a declined search started an expansion", name)
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
