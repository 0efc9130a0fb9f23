package roadnet

// Differential suite for the target-aware expansions (many.go). The oracle
// is the same verbatim map-backed Dijkstra the flat kernel is tested
// against: at every *target* node, ExpandToMany (and its reverse form) must
// reproduce the oracle's reachability and distances bit for bit — early
// termination may truncate the rest of the ball, but never what the caller
// reads. FuzzExpandToMany extends the same property to fuzzer-chosen graphs
// and degenerate target sets.

import (
	"math"
	"math/rand"
	"testing"
)

// manyTargetSets enumerates the degenerate shapes a target set can take on
// a graph of n nodes: random spreads, duplicates, invalid IDs, the source
// itself, and sets living in the (possibly disconnected) tail.
func manyTargetSets(rng *rand.Rand, n int, src NodeID) map[string][]NodeID {
	spread := make([]NodeID, 0, 12)
	for i := 0; i < 12; i++ {
		spread = append(spread, NodeID(rng.Intn(n)))
	}
	dup := []NodeID{spread[0], spread[0], spread[1], spread[0]}
	tail := []NodeID{NodeID(n - 1), NodeID(n - 2), NodeID(n - 1)}
	return map[string][]NodeID{
		"spread":     spread,
		"duplicates": dup,
		"withSrc":    {src, spread[2], src},
		"invalid":    {-1, NodeID(n), NodeID(n + 7), spread[3]},
		"tail":       tail,
		"single":     {spread[4]},
	}
}

// checkManyAgainstOracle compares the expansion at each target against the
// oracle map, requiring identical reachability and bit-identical distances.
func checkManyAgainstOracle(t *testing.T, label string, x Expansion, targets []NodeID, want map[NodeID]float64) {
	t.Helper()
	for _, tgt := range targets {
		wd, wok := want[tgt]
		gd, gok := x.Dist(tgt)
		if gok != wok {
			t.Fatalf("%s target %d: reachability got %v, oracle %v", label, tgt, gok, wok)
		}
		if gok && math.Float64bits(gd) != math.Float64bits(wd) {
			t.Fatalf("%s target %d: dist %v (%x) != oracle %v (%x)",
				label, tgt, gd, math.Float64bits(gd), wd, math.Float64bits(wd))
		}
	}
}

// TestExpandToManyMatchesOracle is the core differential property: over
// random graphs, weight tables, bounds, directions, and degenerate target
// sets, the target-aware expansion must agree with the map-backed reference
// Dijkstra at every target.
func TestExpandToManyMatchesOracle(t *testing.T) {
	for gname, g := range diffGraphs() {
		for tname, cw := range diffTables() {
			rng := rand.New(rand.NewSource(41))
			for trial := 0; trial < 6; trial++ {
				src := NodeID(rng.Intn(g.NumNodes()))
				for _, bound := range []float64{math.Inf(1), 1500, 4000} {
					want, _ := refDijkstra(g, src, Invalid, cw, bound)
					wantR := refDistancesTo(g, src, cw, bound)
					for sname, targets := range manyTargetSets(rng, g.NumNodes(), src) {
						label := gname + "/" + tname + "/" + sname
						x := g.ExpandToMany(src, targets, cw, bound)
						checkManyAgainstOracle(t, label+"/fwd", x, targets, want)
						x.Release()

						xr := g.ExpandToManyReverse(src, targets, cw, bound)
						checkManyAgainstOracle(t, label+"/rev", xr, targets, wantR)
						xr.Release()
					}
				}
			}
		}
	}
}

// TestExpandToManyEdgeCases pins the contract's corners: empty and
// all-invalid target sets price nothing, an invalid origin reaches nothing,
// src-only target sets terminate immediately with dist 0, and a bound
// smaller than the nearest target leaves every target unreached.
func TestExpandToManyEdgeCases(t *testing.T) {
	g := tinyGraph()
	cw := DistanceWeight

	x := g.ExpandToMany(0, nil, cw, math.Inf(1))
	for n := 0; n < g.NumNodes(); n++ {
		if _, ok := x.Dist(NodeID(n)); ok {
			t.Fatalf("empty target set reached node %d", n)
		}
	}
	x.Release()

	x = g.ExpandToMany(0, []NodeID{-3, NodeID(g.NumNodes()), Invalid}, cw, math.Inf(1))
	for n := 0; n < g.NumNodes(); n++ {
		if _, ok := x.Dist(NodeID(n)); ok {
			t.Fatalf("all-invalid target set reached node %d", n)
		}
	}
	x.Release()

	x = g.ExpandToMany(Invalid, []NodeID{0, 1}, cw, math.Inf(1))
	if _, ok := x.Dist(0); ok {
		t.Fatal("invalid origin reached a target")
	}
	x.Release()

	x = g.ExpandToMany(2, []NodeID{2}, cw, math.Inf(1))
	if d, ok := x.Dist(2); !ok || d != 0 {
		t.Fatalf("src-only target set: dist %v ok %v, want 0 true", d, ok)
	}
	x.Release()

	// Node 1 is 1000 m from node 0 in tinyGraph; a 500 m bound cannot
	// settle any target, and the expansion must report them unreachable
	// exactly like the full bounded expansion does.
	x = g.ExpandToMany(0, []NodeID{1, 4}, cw, 500)
	if _, ok := x.Dist(1); ok {
		t.Fatal("target beyond the bound reported reachable")
	}
	if _, ok := x.Dist(4); ok {
		t.Fatal("far target beyond the bound reported reachable")
	}
	x.Release()

	// Targets in a disconnected component: the expansion exhausts the
	// reachable ball (paying what ExpandFrom pays) and reports them
	// unreachable.
	dg := randomSparseGraph(4, 160, 2, true)
	iso := NodeID(dg.NumNodes() - 1)
	xd := dg.ExpandToMany(0, []NodeID{iso}, DistanceWeight, math.Inf(1))
	if _, ok := xd.Dist(iso); ok {
		t.Fatal("isolated target reported reachable")
	}
	xd.Release()
}

// TestExpandToManyEarlyTerminates asserts the point of the primitive: with
// all targets near the source, the truncated expansion settles a small
// fraction of what the full expansion settles, visible through the
// roadnet_many_* counters.
func TestExpandToManyEarlyTerminates(t *testing.T) {
	g := smallUrban(5)
	cw := TimeClassWeights()
	src := NodeID(g.NumNodes() / 2)
	// Targets: the immediate out-neighbors of src.
	var targets []NodeID
	g.OutEdges(src, func(e Edge) { targets = append(targets, e.To) })
	if len(targets) == 0 {
		t.Fatal("source has no out-neighbors")
	}

	settledBefore := met.manySettled.Value()
	earlyBefore := met.manyEarlyTerms.Value()
	x := g.ExpandToMany(src, targets, cw, math.Inf(1))
	x.Release()
	settled := met.manySettled.Value() - settledBefore

	if settled == 0 || settled > uint64(g.NumNodes())/4 {
		t.Fatalf("settled %d of %d nodes; early termination should touch far fewer", settled, g.NumNodes())
	}
	if met.manyEarlyTerms.Value() == earlyBefore {
		t.Fatal("expansion with near targets did not terminate early")
	}
}

// TestExpandToManyStampWrapReuse drives the packed slots through the uint32
// stamp wrap: the wrap must clear seen, done and targ together. A stale targ
// from four billion searches ago would masquerade as a live target and
// terminate a fresh search too early; a stale done would drop the node from
// the search; a stale seen would hand back a distance nobody computed. On
// both frontiers: the ring's own storage carries no stamps — its chains are
// emptied per search — so what a truncated search leaves queued must not
// reach the next one either.
func TestExpandToManyStampWrapReuse(t *testing.T) {
	cw := ClassWeights{1, 1, 1, 1}
	for name, search := range map[string]func(*searchState){
		"heap": func(st *searchState) { st.run(0, Invalid, &cw, math.Inf(1), false) },
		"ring": func(st *searchState) { st.expand(0, &cw, math.Inf(1), false) },
	} {
		t.Run(name, func(t *testing.T) {
			since := countSearches()
			g := tinyGraph()
			st := newSearchState(g)
			st.stamp = math.MaxUint32 - 1
			for i := range st.slots {
				// Every stamp would alias generation 1 after a naive wrap.
				st.slots[i] = nodeSlot{dist: -123, seen: 1, done: 1, targ: 1}
			}
			st.inUse = true
			st.begin() // -> MaxUint32
			if got := st.markTargets([]NodeID{4}); got != 1 {
				t.Fatalf("markTargets = %d, want 1", got)
			}
			search(st)
			if st.targetsLeft != 0 {
				t.Fatalf("target not settled before wrap: targetsLeft = %d", st.targetsLeft)
			}

			st.inUse = true
			st.begin() // wraps: arrays cleared, stamp 1
			if st.stamp != 1 {
				t.Fatalf("stamp after wrap = %d, want 1", st.stamp)
			}
			for i, s := range st.slots {
				if s.seen != 0 || s.done != 0 || s.targ != 0 {
					t.Fatalf("slot %d after wrap = %+v, want all three stamps cleared", i, s)
				}
			}
			// One real target this generation, next to the source: node 4 carried a
			// stale targ before the wrap and must not count, so the search stops at
			// node 1 without ever settling node 4.
			if got := st.markTargets([]NodeID{1}); got != 1 {
				t.Fatalf("markTargets after wrap = %d, want 1", got)
			}
			search(st)
			if st.targetsLeft != 0 || st.slots[1].done != st.stamp {
				t.Fatalf("post-wrap target not settled: targetsLeft=%d slot=%+v", st.targetsLeft, st.slots[1])
			}
			if st.slots[4].done == st.stamp {
				t.Fatal("post-wrap search ran past its only target")
			}
			if st.pending == 0 {
				t.Fatal("the truncated search left nothing queued: the next step tests nothing")
			}
			// And with no targets at all the search runs to exhaustion.
			st.inUse = true
			st.begin()
			search(st)
			if d, ok := st.slots[4].dist, st.reached(4); !ok || d != 4000 || st.pending != 0 {
				t.Fatalf("post-wrap search truncated: dist[4]=%v reached=%v pending=%d, want 4000 true 0", d, ok, st.pending)
			}
			if _, fallbacks := since(); fallbacks != 0 {
				t.Fatalf("%d searches fell back to the heap; the ring case ran on the wrong frontier", fallbacks)
			}
		})
	}
}

// TestExpandToManyZeroAllocSteadyState asserts the acceptance criterion for
// the batched path: once the pool is warm, a target-aware expansion plus
// reads plus release allocates nothing.
func TestExpandToManyZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	g := smallUrban(2)
	cw := TimeClassWeights()
	src := NodeID(0)
	targets := []NodeID{3, 9, 14, 21, NodeID(g.NumNodes() - 1)}
	for i := 0; i < 4; i++ {
		x := g.ExpandToMany(src, targets, cw, 600)
		x.Release()
	}
	allocs := testing.AllocsPerRun(50, func() {
		x := g.ExpandToMany(src, targets, cw, 600)
		for _, tgt := range targets {
			x.Dist(tgt)
		}
		x.Release()
	})
	if allocs != 0 {
		t.Fatalf("steady-state many-target expansion allocates %.1f allocs/op, want 0", allocs)
	}
}

// FuzzExpandToMany fuzzes the differential property: arbitrary graphs,
// bounds, directions and target sets (duplicates, unreachable nodes,
// src∈targets, invalid IDs, empty sets) against the verbatim map-Dijkstra
// oracle.
func FuzzExpandToMany(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(2), float64(2500), int64(9), uint8(8), false)
	f.Add(int64(2), uint8(120), uint8(3), math.Inf(1), int64(3), uint8(0), true)
	f.Add(int64(3), uint8(40), uint8(1), float64(100), int64(5), uint8(30), false)
	f.Fuzz(func(t *testing.T, gseed int64, nRaw, degRaw uint8, bound float64, tseed int64, nTargets uint8, reverse bool) {
		n := 8 + int(nRaw)%200
		deg := 1 + int(degRaw)%4
		g := randomSparseGraph(gseed, n, deg, gseed%2 == 0)
		if math.IsNaN(bound) || bound < 0 {
			bound = math.Inf(1)
		}
		cw := TimeClassWeights()

		rng := rand.New(rand.NewSource(tseed))
		src := NodeID(rng.Intn(g.NumNodes()))
		targets := make([]NodeID, 0, int(nTargets))
		for i := 0; i < int(nTargets); i++ {
			// Biased into range but spilling past both ends, so invalid IDs
			// and the isolated tail both occur.
			targets = append(targets, NodeID(rng.Intn(g.NumNodes()+6)-3))
		}
		if nTargets%5 == 0 && len(targets) > 0 {
			targets = append(targets, src, targets[0]) // src∈targets + duplicate
		}

		var want map[NodeID]float64
		var x Expansion
		if reverse {
			want = refDistancesTo(g, src, cw, bound)
			x = g.ExpandToManyReverse(src, targets, cw, bound)
		} else {
			want, _ = refDijkstra(g, src, Invalid, cw, bound)
			x = g.ExpandToMany(src, targets, cw, bound)
		}
		defer x.Release()
		for _, tgt := range targets {
			wd, wok := want[tgt]
			if !g.validID(tgt) {
				wok = false
			}
			gd, gok := x.Dist(tgt)
			if gok != wok {
				t.Fatalf("target %d: reachability got %v, oracle %v (reverse=%v)", tgt, gok, wok, reverse)
			}
			if gok && math.Float64bits(gd) != math.Float64bits(wd) {
				t.Fatalf("target %d: dist %v != oracle %v (reverse=%v)", tgt, gd, wd, reverse)
			}
		}
	})
}

// BenchmarkManyToMany prices one anchor against T targets two ways: the
// full-ball expansion (one bounded Dijkstra, read T nodes) and the
// target-aware truncated expansion. Compare ns/op across target counts;
// allocs/op must stay 0 for both.
func BenchmarkManyToMany(b *testing.B) {
	cfg := DefaultUrbanConfig()
	cfg.WidthKM, cfg.HeightKM = 12, 10
	cfg.Seed = 9
	g := GenerateUrban(cfg)
	cw := TimeClassWeights()
	src := NodeID(g.NumNodes() / 2)
	bound := math.Inf(1)
	rng := rand.New(rand.NewSource(17))

	for _, tc := range []int{10, 100, 1000} {
		targets := make([]NodeID, tc)
		for i := range targets {
			targets[i] = NodeID(rng.Intn(g.NumNodes()))
		}
		b.Run("FullBall/"+itoa(tc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x := g.ExpandFrom(src, cw, bound)
				for _, tgt := range targets {
					x.Dist(tgt)
				}
				x.Release()
			}
		})
		b.Run("Batched/"+itoa(tc), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				x := g.ExpandToMany(src, targets, cw, bound)
				for _, tgt := range targets {
					x.Dist(tgt)
				}
				x.Release()
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
