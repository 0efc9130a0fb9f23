package cknn

// Differential suite for the one-expansion round trip: when a query returns
// to its anchor on a symmetric road graph, deroutingMaps hands the outbound
// expansion back as the return leg. The oracle is the builder as it was
// before — twoLegDerouting below, which always searches the reverse graph
// from the return node — and everything the alias prices must equal it bit
// for bit: Cost and TravelTo at every node read, and whole Offering Tables
// through the unmodified methods, there against the same world plus one
// one-way arc, which takes the two-leg path by itself. The kernel-level half
// of the argument (reverse ≡ forward on a symmetric graph) is pinned in
// roadnet/symmetric_test.go.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/ec"
	"ecocharge/internal/geo"
	"ecocharge/internal/obs"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/trajectory"
)

// twoLegDerouting is deroutingMaps without the symmetry shortcut: one
// expansion from the anchor and one, on the reverse graph, to the return
// node, under each weight table — four searches exact, two approximate.
func twoLegDerouting(env *Env, q Query, boundSec float64, targets []roadnet.NodeID, approx bool) DeroutingMaps {
	g := env.Graph
	ret := q.ReturnNode
	if ret < 0 {
		ret = q.AnchorNode
	}
	from := func(cw roadnet.ClassWeights) roadnet.Expansion {
		if targets == nil {
			return g.ExpandFrom(q.AnchorNode, cw, boundSec)
		}
		return g.ExpandToMany(q.AnchorNode, targets, cw, boundSec)
	}
	to := func(cw roadnet.ClassWeights) roadnet.Expansion {
		if targets == nil {
			return g.ExpandTo(ret, cw, boundSec)
		}
		return g.ExpandToManyReverse(ret, targets, cw, boundSec)
	}
	lo, hi := env.Traffic.ClassWeightTables(q.ETABase, q.Now)
	d := DeroutingMaps{scaleLo: 1, scaleHi: 1}
	if approx {
		var mid roadnet.ClassWeights
		for c := range mid {
			mid[c] = (lo[c] + hi[c]) / 2
			if mid[c] > 0 {
				d.scaleLo = math.Min(d.scaleLo, lo[c]/mid[c])
				d.scaleHi = math.Max(d.scaleHi, hi[c]/mid[c])
			}
		}
		d.fwdLo, d.retLo = from(mid), to(mid)
		d.fwdHi, d.retHi = d.fwdLo, d.retLo
		d.own(d.fwdLo)
		d.own(d.retLo)
	} else {
		d.fwdLo, d.retLo = from(lo), to(lo)
		d.fwdHi, d.retHi = from(hi), to(hi)
		for _, x := range []roadnet.Expansion{d.fwdLo, d.retLo, d.fwdHi, d.retHi} {
			d.own(x)
		}
	}
	if base, ok := d.fwdLo.Dist(ret); ok {
		d.baseLo = base * d.scaleLo
		d.baseHi = distOr(d.fwdHi, ret, math.Inf(1)) * d.scaleHi
	}
	return d
}

// boundsFor names the builder's bounds choice for the oracle's flag.
func boundsFor(approx bool) deroutBounds {
	if approx {
		return approxBounds
	}
	return exactBounds
}

// returnIsOutbound reports whether d's return views alias its outbound ones,
// that is, whether the builder skipped the reverse leg.
func returnIsOutbound(d DeroutingMaps) bool {
	return d.retLo == d.fwdLo && d.retHi == d.fwdHi
}

// requireSameDerouting holds got against want at every node given, bit for
// bit, for both Cost and TravelTo, and returns how many of the nodes are
// priced.
func requireSameDerouting(t *testing.T, label string, got, want DeroutingMaps, nodes []roadnet.NodeID) (priced int) {
	t.Helper()
	for _, n := range nodes {
		gc, gok := got.Cost(n)
		wc, wok := want.Cost(n)
		if gok != wok || !sameInterval(gc, wc) {
			t.Fatalf("%s node %d: Cost = %v (%v), the two-leg oracle has %v (%v)", label, n, gc, gok, wc, wok)
		}
		gt, gok := got.TravelTo(n)
		wt, wok := want.TravelTo(n)
		if gok != wok || !sameInterval(gt, wt) {
			t.Fatalf("%s node %d: TravelTo = %v (%v), the two-leg oracle has %v (%v)", label, n, gt, gok, wt, wok)
		}
		if gok {
			priced++
		}
	}
	return priced
}

func allNodes(g *roadnet.Graph) []roadnet.NodeID {
	out := make([]roadnet.NodeID, g.NumNodes())
	for i := range out {
		out[i] = roadnet.NodeID(i)
	}
	return out
}

// envOn builds a small world on g the way experiment.BuildScenario does.
func envOn(t testing.TB, g *roadnet.Graph, chargers int, seed int64) *Env {
	t.Helper()
	avail := ec.NewAvailabilityModel(seed + 1)
	set, err := charger.Generate(g, avail, charger.GenConfig{N: chargers, Seed: seed + 2})
	if err != nil {
		t.Fatalf("charger.Generate: %v", err)
	}
	env, err := NewEnv(g, set, ec.NewSolarModel(seed+3), avail, ec.NewTrafficModel(seed+4),
		EnvConfig{RadiusM: 50000, Wind: ec.NewWindModel(seed + 6)})
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return env
}

// randomUndirectedGraph is a random symmetric multigraph: a ring (so it is
// connected) plus random chords, some doubled into parallel roads of another
// class and length, plus a few self-loops.
func randomUndirectedGraph(seed int64, n int) *roadnet.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := roadnet.NewGraph(n, 6*n)
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{Lat: 53 + rng.Float64()*0.2, Lon: 8 + rng.Float64()*0.3})
	}
	class := func() roadnet.RoadClass { return roadnet.RoadClass(rng.Intn(roadnet.NumRoadClasses)) }
	for i := 0; i < n; i++ {
		a := roadnet.NodeID(i)
		g.AddBidirectional(a, roadnet.NodeID((i+1)%n), 0, class())
		to := roadnet.NodeID(rng.Intn(n))
		g.AddBidirectional(a, to, 200+rng.Float64()*4000, class())
		if rng.Intn(4) == 0 {
			g.AddBidirectional(a, to, 200+rng.Float64()*4000, class())
		}
		if rng.Intn(10) == 0 {
			g.AddEdge(a, a, 50, roadnet.ClassLocal)
		}
	}
	g.Freeze()
	return g
}

// oneWayShortcutsGraph is a two-way ring with one-way chords across it.
func oneWayShortcutsGraph(seed int64, n int) *roadnet.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := roadnet.NewGraph(n, 3*n)
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{Lat: 53 + rng.Float64()*0.2, Lon: 8 + rng.Float64()*0.3})
	}
	for i := 0; i < n; i++ {
		g.AddBidirectional(roadnet.NodeID(i), roadnet.NodeID((i+1)%n), 1000, roadnet.ClassLocal)
		g.AddEdge(roadnet.NodeID(i), roadnet.NodeID(rng.Intn(n)), 1500, roadnet.ClassArterial)
	}
	g.Freeze()
	return g
}

// symmetricEnvs are the worlds of the suite: the package's urban fixture,
// random undirected multigraphs, and the Oldenburg scenario the repository
// benchmark runs on (its graph seed and inventory size; a shard there holds
// a third of these chargers).
func symmetricEnvs(t testing.TB) map[string]*Env {
	t.Helper()
	envs := map[string]*Env{
		"urban":   testEnv(t),
		"random1": envOn(t, randomUndirectedGraph(1, 400), 80, 1),
		"random2": envOn(t, randomUndirectedGraph(2, 900), 150, 2),
	}
	if !testing.Short() {
		p, err := trajectory.ProfileByName("Oldenburg")
		if err != nil {
			t.Fatal(err)
		}
		envs["Oldenburg"] = envOn(t, p.BuildGraph(42), p.Chargers, 42)
	}
	for name, env := range envs {
		if !env.Graph.Symmetric() {
			t.Fatalf("%s: the graph is not symmetric; the suite would compare the two-leg path with itself", name)
		}
	}
	return envs
}

// directedTwin is env on the same road graph plus one one-way arc, appended
// last between the endpoints of the first edge and far too long to lie on a
// shortest path: node IDs, chargers, models and every distance are those of
// env, but the graph is no longer symmetric, so every derouting computation
// on the twin runs both legs.
func directedTwin(t testing.TB, env *Env) *Env {
	t.Helper()
	g := env.Graph
	out := roadnet.NewGraph(g.NumNodes(), g.NumEdges()+1)
	for _, n := range allNodes(g) {
		out.AddNode(g.Node(n).P)
	}
	edges := g.Edges()
	for _, e := range edges {
		out.AddEdge(e.From, e.To, e.Length, e.Class)
	}
	out.AddEdge(edges[0].From, edges[0].To, 1e12, edges[0].Class)
	out.Freeze()
	if out.Symmetric() {
		t.Fatal("a graph with a single one-way arc reports Symmetric")
	}
	twin := *env
	twin.Graph = out
	return &twin
}

// roundTripQueries returns n queries that return to their anchor, at random
// nodes, with per-driver weights, alternating between an explicit return
// node and the defaulted one.
func roundTripQueries(env *Env, seed int64, n int) []Query {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Query, n)
	for i := range out {
		node := env.Graph.Node(roadnet.NodeID(rng.Intn(env.Graph.NumNodes())))
		q := Query{
			Anchor: node.P, AnchorNode: node.ID, ReturnNode: node.ID,
			Now: queryTime, ETABase: queryTime.Add(time.Duration(i) * time.Minute),
			K: 3 + i%3, RadiusM: 10000,
			Weights: Weights{L: 0.2 + rng.Float64(), A: 0.2 + rng.Float64(), D: 0.2 + rng.Float64()},
		}
		if i%2 == 1 {
			q.ReturnNode = roadnet.Invalid
		}
		out[i] = q
	}
	return out
}

// expansionsStarted reads the kernel's two expansion counters: full-ball and
// many-target searches started so far in this test binary.
func expansionsStarted() (full, many uint64) {
	r := obs.Default()
	return r.Counter("roadnet_expansions_total").Value(), r.Counter("roadnet_many_expansions_total").Value()
}

// TestAliasedDeroutingMatchesTwoLeg is the maps-level property: exact and
// approximate, batched and full-ball (by a nil target set and by the
// FullDerouting switch), unbounded and bounded — the aliased maps equal the
// two-leg oracle at every node a caller may read, and cost half the
// expansions.
func TestAliasedDeroutingMatchesTwoLeg(t *testing.T) {
	for name, env := range symmetricEnvs(t) {
		nodes := allNodes(env.Graph)
		cands := allChargerPtrs(env)
		nQueries := 6
		if name == "Oldenburg" {
			nQueries = 3
		}
		for qi, q := range roundTripQueries(env, 7, nQueries) {
			targets := deroutTargets(cands, q.AnchorNode)
			for _, bound := range []float64{math.Inf(1), 600, q.RadiusM / avgUrbanSpeed} {
				for _, approx := range []bool{false, true} {
					for _, shape := range []struct {
						name          string
						targets, read []roadnet.NodeID
						fullSwitch    bool
					}{
						{"batched", targets, targets, false},
						{"fullBall", nil, nodes, false},
						{"FullDerouting", targets, nodes, true},
					} {
						label := name + "/" + shape.name
						if approx {
							label += "/approx"
						}
						env.FullDerouting = shape.fullSwitch
						full0, many0 := expansionsStarted()
						got := env.deroutingMaps(q, bound, shape.targets, boundsFor(approx))
						full1, many1 := expansionsStarted()
						env.FullDerouting = false
						if !returnIsOutbound(got) {
							t.Fatalf("%s query %d: a round trip on a symmetric graph ran the return leg", label, qi)
						}
						wantRuns := uint64(2)
						if approx {
							wantRuns = 1
						}
						if runs := (full1 - full0) + (many1 - many0); runs != wantRuns {
							t.Fatalf("%s query %d: %d expansions, want %d", label, qi, runs, wantRuns)
						}
						oracleTargets := shape.targets
						if shape.fullSwitch {
							oracleTargets = nil
						}
						want := twoLegDerouting(env, q, bound, oracleTargets, approx)
						priced := requireSameDerouting(t, label, got, want, shape.read)
						if math.IsInf(bound, 1) && priced < len(shape.read)/2 {
							t.Fatalf("%s query %d: %d of %d nodes priced without a bound; the comparison is vacuous",
								label, qi, priced, len(shape.read))
						}
						got.Release()
						want.Release()
					}
				}
			}
		}
	}
}

// TestAliasedTablesMatchTwoLeg is the table-level property: RankOnce (both
// derouting variants), BruteForce and Index-Quadtree emit on the symmetric
// world exactly the Offering Tables they emit on its directed twin, where
// every ranking runs both legs.
func TestAliasedTablesMatchTwoLeg(t *testing.T) {
	for name, env := range symmetricEnvs(t) {
		twin := directedTwin(t, env)
		nQueries := 8
		if name == "Oldenburg" {
			nQueries = 3
		}
		for _, rk := range []struct {
			name string
			rank func(*Env, Query) OfferingTable
			legs uint64 // many-target expansions per ranking when both legs run
		}{
			{"RankOnce", func(e *Env, q Query) OfferingTable { return RankOnce(e, EcoChargeOptions{}, q) }, 2},
			{"RankOnce/exact", func(e *Env, q Query) OfferingTable {
				return RankOnce(e, EcoChargeOptions{RadiusM: 20000, ExactDerouting: true}, q)
			}, 4},
			{"BruteForce", func(e *Env, q Query) OfferingTable { return NewBruteForce(e).Rank(q) }, 4},
			{"Index-Quadtree", func(e *Env, q Query) OfferingTable { return NewIndexQuadtree(e).Rank(q) }, 4},
		} {
			entries := 0
			for qi, q := range roundTripQueries(env, 9, nQueries) {
				_, many0 := expansionsStarted()
				got := rk.rank(env, q)
				_, many1 := expansionsStarted()
				want := rk.rank(twin, q)
				_, many2 := expansionsStarted()
				if one, two := many1-many0, many2-many1; one != rk.legs/2 || two != rk.legs {
					t.Fatalf("%s/%s query %d: %d expansions on the symmetric graph, %d on its directed twin; want %d and %d",
						name, rk.name, qi, one, two, rk.legs/2, rk.legs)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s query %d: the table differs from the two-leg one\none leg:  %v\ntwo legs: %v",
						name, rk.name, qi, got.IDs(), want.IDs())
				}
				entries += len(got.Entries)
			}
			if entries < nQueries {
				t.Fatalf("%s/%s: %d entries over %d tables; the comparison is vacuous", name, rk.name, entries, nQueries)
			}
		}
	}
}

// TestTripSegmentsAndDirectedGraphsKeepBothLegs is the control: a query that
// rejoins its route elsewhere (every trip segment), and any query on a graph
// with a one-way arc, still search the reverse graph — and price what the
// two-leg oracle prices.
func TestTripSegmentsAndDirectedGraphsKeepBothLegs(t *testing.T) {
	env := testEnv(t)
	twin := directedTwin(t, env)
	round := testQuery(env).normalized()
	segment := round
	segment.ReturnNode = roadnet.NodeID(env.Graph.NumNodes() / 3)
	targets := deroutTargets(allChargerPtrs(env), segment.ReturnNode)

	for _, tc := range []struct {
		name string
		env  *Env
		q    Query
	}{
		{"trip segment on the symmetric graph", env, segment},
		{"round trip on the directed twin", twin, round},
		{"trip segment on the directed twin", twin, segment},
	} {
		for _, approx := range []bool{false, true} {
			_, many0 := expansionsStarted()
			got := tc.env.deroutingMaps(tc.q, math.Inf(1), targets, boundsFor(approx))
			_, many1 := expansionsStarted()
			want := uint64(4)
			if approx {
				want = 2
			}
			if returnIsOutbound(got) || many1-many0 != want {
				t.Fatalf("%s (approx=%v): return aliased=%v after %d many-target expansions, want both legs (%d)",
					tc.name, approx, returnIsOutbound(got), many1-many0, want)
			}
			// The twin's extra arc changes no distance, so the oracle on the
			// symmetric graph prices the twin too.
			oracle := twoLegDerouting(env, tc.q, math.Inf(1), targets, approx)
			requireSameDerouting(t, tc.name, got, oracle, targets)
			got.Release()
			oracle.Release()
		}
	}

	// A graph whose one-way roads matter: the way back differs from the way
	// out, an alias would misprice it, and the builder does not take it.
	oneWay := envOn(t, oneWayShortcutsGraph(3, 300), 60, 3)
	q := roundTripQueries(oneWay, 5, 1)[0]
	nodes := allNodes(oneWay.Graph)
	for _, approx := range []bool{false, true} {
		got := oneWay.deroutingMaps(q, math.Inf(1), nil, boundsFor(approx))
		oracle := twoLegDerouting(oneWay, q, math.Inf(1), nil, approx)
		requireSameDerouting(t, "one-way shortcuts", got, oracle, nodes)
		differ := 0
		for _, n := range nodes {
			if out, _ := got.fwdLo.Dist(n); out != distOr(got.retLo, n, -1) {
				differ++
			}
		}
		if returnIsOutbound(got) || differ == 0 {
			t.Fatalf("one-way shortcuts (approx=%v): return aliased=%v, the way back differs from the way out at %d nodes",
				approx, returnIsOutbound(got), differ)
		}
		got.Release()
		oracle.Release()
	}

	// Through a method: an EcoCharge cache miss on a segment query.
	_, many0 := expansionsStarted()
	table := NewEcoCharge(env, EcoChargeOptions{}).Rank(segment)
	_, many1 := expansionsStarted()
	if many1-many0 != 2 || len(table.Entries) == 0 {
		t.Fatalf("EcoCharge on a trip segment: %d many-target expansions for %d entries, want 2 (both legs)",
			many1-many0, len(table.Entries))
	}
}

// TestAliasedDeroutingReleasesWhatItAcquired pins Release under aliasing:
// each variant hands back exactly the search states it checked out — an
// alias is not released a second time — and a repeated Release changes
// nothing.
func TestAliasedDeroutingReleasesWhatItAcquired(t *testing.T) {
	env := testEnv(t)
	twin := directedTwin(t, env)
	q := testQuery(env).normalized()
	targets := deroutTargets(allChargerPtrs(env), q.ReturnNode)
	acquires := obs.Default().Counter("roadnet_pool_acquires_total")
	releases := obs.Default().Counter("roadnet_pool_releases_total")
	for _, tc := range []struct {
		name    string
		env     *Env
		targets []roadnet.NodeID
		approx  bool
		states  uint64
	}{
		{"approx/batched/aliased", env, targets, true, 1},
		{"approx/fullBall/aliased", env, nil, true, 1},
		{"exact/batched/aliased", env, targets, false, 2},
		{"exact/fullBall/aliased", env, nil, false, 2},
		{"approx/batched/twoLeg", twin, targets, true, 2},
		{"exact/batched/twoLeg", twin, targets, false, 4},
	} {
		a0, r0 := acquires.Value(), releases.Value()
		d := tc.env.deroutingMaps(q, math.Inf(1), tc.targets, boundsFor(tc.approx))
		if _, ok := d.Cost(q.AnchorNode); !ok {
			t.Fatalf("%s: the anchor is not priced", tc.name)
		}
		d.Release()
		if a, r := acquires.Value()-a0, releases.Value()-r0; a != tc.states || r != tc.states {
			t.Fatalf("%s: %d search states acquired, %d released; want %d and %d", tc.name, a, r, tc.states, tc.states)
		}
		d.Release()
		if r := releases.Value() - r0; r != tc.states {
			t.Fatalf("%s: a second Release returned %d more search states", tc.name, r-tc.states)
		}
	}
}

// bytesPerRun is the heap allocation of one call of fn, in bytes, measured
// like testing.AllocsPerRun measures its count.
func bytesPerRun(fn func()) float64 {
	const runs = 20
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// BenchmarkRankOnceOldenburg prices what one shard of the fleet pays for one
// response-cache miss: a stand-alone EcoCharge ranking that returns to its
// anchor, on the Oldenburg scenario graph with a third of the inventory
// (rendezvous sharding hands each of three shards a pseudo-random third).
// Like BenchmarkExpandOldenburg it first asserts the allocation budget. A
// ranking allocates its target and result slices — a fixed number; the
// candidates and the filtering phase's scratch are pooled — and nothing per
// charger, so ranking all 333 chargers must
// cost the allocations of ranking the few dozen within 10 km; and what those
// slices hold per candidate is a node, so a ranking's bytes must grow by well under the 112 bytes of an Entry per
// candidate: the filtering phase's entries are pooled scratch (rankPool).
func BenchmarkRankOnceOldenburg(b *testing.B) {
	env, q := oldenburgWorld(b, 3)
	rank := func(radiusM float64) func() {
		return func() {
			if t := RankOnce(env, EcoChargeOptions{RadiusM: radiusM}, q); len(t.Entries) != q.K {
				b.Fatalf("%d entries within %v m, want %d", len(t.Entries), radiusM, q.K)
			}
		}
	}
	once := rank(50000)
	once() // warm the search-state pool and the heap's backing array
	if !raceEnabled {
		if all, near := testing.AllocsPerRun(5, once), testing.AllocsPerRun(5, rank(10000)); all != near {
			b.Fatalf("%v allocs ranking every charger, %v ranking those within 10 km: something allocates per candidate", all, near)
		}
		candsAll := len(env.Chargers.Within(q.Anchor, 50000))
		candsNear := len(env.Chargers.Within(q.Anchor, 10000))
		perCand := (bytesPerRun(once) - bytesPerRun(rank(10000))) / float64(candsAll-candsNear)
		if perCand > 72 {
			b.Fatalf("a ranking allocates %.0f B per candidate (%d against %d candidates), want at most 72: the entry slice is back on the heap", perCand, candsAll, candsNear)
		}
	}
	_, many0 := expansionsStarted()
	forecast0, _, _ := filterOutcomes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		once()
	}
	b.StopTimer()
	_, many1 := expansionsStarted()
	if many1-many0 != uint64(b.N) {
		b.Fatalf("%d many-target expansions for %d round-trip rankings, want one each", many1-many0, b.N)
	}
	forecast1, _, _ := filterOutcomes()
	b.ReportMetric(float64(forecast1-forecast0)/float64(b.N), "forecasts/op")
}

// BenchmarkRetrievalOldenburg prices a ranking's first step on the whole
// Oldenburg inventory, from the middle of the map, both ways a caller can ask:
// Set.Within, closest first — a distance per charger and a sort — and
// Set.WithinInto, the index's walk into kept storage, which measures only the
// chargers of the leaves the circle cuts and sorts nothing. At 6 km the circle
// cuts through the town; 50 km covers it, and the walk takes the tree whole.
func BenchmarkRetrievalOldenburg(b *testing.B) {
	env, q := oldenburgWorld(b, 1)
	for _, radiusM := range []float64{6000, 50000} {
		want := len(env.Chargers.Within(q.Anchor, radiusM))
		b.Run(fmt.Sprintf("sorted/R=%.0fkm", radiusM/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := len(env.Chargers.Within(q.Anchor, radiusM)); got != want {
					b.Fatalf("%d chargers, want %d", got, want)
				}
			}
			b.ReportMetric(float64(want), "chargers/op")
		})
		b.Run(fmt.Sprintf("walk/R=%.0fkm", radiusM/1000), func(b *testing.B) {
			var store charger.Candidates
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := len(env.Chargers.WithinInto(&store, q.Anchor, radiusM)); got != want {
					b.Fatalf("%d chargers, want %d", got, want)
				}
			}
			b.ReportMetric(float64(want), "chargers/op")
		})
	}
}
