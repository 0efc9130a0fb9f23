package roadnet

// Tests of the bucket ring (flat.go: ringFor, drain): the oracle suites again
// with the ring declined, so both frontiers answer every case; the inputs
// built to break a bucket queue — labels on bucket edges, arcs one ulp either
// side of the bucket width, bounds below one bucket, a ring that wraps
// hundreds of times; and the inputs the ring must decline.

import (
	"math"
	"math/rand"
	"testing"

	"ecocharge/internal/geo"
)

// countSearches reports how many distance-only searches ran since the
// returned function was made, and how many of them the ring declined.
func countSearches() func() (searches, fallbacks uint64) {
	s := met.expansions.Value() + met.manyExpansions.Value()
	f := met.heapFallbacks.Value()
	return func() (uint64, uint64) {
		return met.expansions.Value() + met.manyExpansions.Value() - s, met.heapFallbacks.Value() - f
	}
}

// TestOracleSuitesOnBothFrontiers runs every case of the two differential
// suites twice: as they run anyway, where most searches must take the ring
// (random graphs with tiny arcs would otherwise only ever test the fallback),
// and with the ring declined. Each run is held to the map-backed oracle bit
// for bit, so the two frontiers are held to each other.
func TestOracleSuitesOnBothFrontiers(t *testing.T) {
	since := countSearches()
	TestExpandToManyMatchesOracle(t)
	TestFlatExpansionMatchesMapKernel(t)
	if searches, fallbacks := since(); fallbacks*2 > searches {
		t.Fatalf("the ring declined %d of the suites' %d searches: they no longer test it", fallbacks, searches)
	}
	HeapOnly(t)
	since = countSearches()
	TestExpandToManyMatchesOracle(t)
	TestFlatExpansionMatchesMapKernel(t)
	if searches, fallbacks := since(); fallbacks != searches {
		t.Fatalf("heap-only run: %d of %d searches counted as fallbacks", fallbacks, searches)
	}
}

// lattice builds a rows × cols grid whose arc lengths come from length, as
// two-way streets or, with oneWay, as arcs pointing right and down only plus
// one arc back from the last node to the first.
func lattice(rows, cols int, oneWay bool, class func(i int) RoadClass, length func(i int) float64) *Graph {
	g := NewGraph(rows*cols, 4*rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddNode(geo.Point{Lat: 53 + 0.001*float64(r), Lon: 8 + 0.001*float64(c)})
		}
	}
	i := 0
	add := func(a, b int) {
		if oneWay {
			g.AddEdge(NodeID(a), NodeID(b), length(i), class(i))
		} else {
			g.AddBidirectional(NodeID(a), NodeID(b), length(i), class(i))
		}
		i++
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				add(r*cols+c, r*cols+c+1)
			}
			if r+1 < rows {
				add(r*cols+c, (r+1)*cols+c)
			}
		}
	}
	if oneWay {
		add(rows*cols-1, 0)
	}
	g.Freeze()
	return g
}

// requireBothFrontiers runs the full-ball expansion and the many-target
// expansion to every node, forward and reverse, on the frontier ringFor picks
// and again on the heap, and holds all of them to the oracle at every node.
// wantRing says which frontier ringFor must have picked.
func requireBothFrontiers(t *testing.T, label string, g *Graph, src NodeID, cw ClassWeights, bound float64, wantRing bool) {
	t.Helper()
	all := make([]NodeID, g.NumNodes())
	for i := range all {
		all[i] = NodeID(i)
	}
	want, _ := refDijkstra(g, src, Invalid, cw, bound)
	wantR := refDistancesTo(g, src, cw, bound)
	run := func(frontier string) {
		for _, tc := range []struct {
			name string
			x    Expansion
			want map[NodeID]float64
		}{
			{"ExpandFrom", g.ExpandFrom(src, cw, bound), want},
			{"ExpandTo", g.ExpandTo(src, cw, bound), wantR},
			{"ExpandToMany", g.ExpandToMany(src, all, cw, bound), want},
			{"ExpandToManyReverse", g.ExpandToManyReverse(src, all, cw, bound), wantR},
		} {
			checkManyAgainstOracle(t, label+"/"+frontier+"/"+tc.name, tc.x, all, tc.want)
			tc.x.Release()
		}
	}
	since := countSearches()
	run("natural")
	if _, fallbacks := since(); wantRing && fallbacks != 0 {
		t.Fatalf("%s: the ring declined %d of 4 searches it should have run", label, fallbacks)
	} else if !wantRing && fallbacks != 4 {
		t.Fatalf("%s: roadnet_heap_fallback_total counted %d of 4 searches the ring cannot run", label, fallbacks)
	}
	heapOnly = true
	defer func() { heapOnly = false }()
	run("heap")
}

// TestRingBucketBoundaries is the case ringFor's slack exists for: a lattice
// whose arcs all cost exactly Δ, so every label is k·Δ and, without the
// slack, sits on the edge between two buckets where a rounded quotient falls
// either way; then arcs one ulp either side of that, in both directions of a
// one-way lattice, under bounds from below one bucket to none.
func TestRingBucketBoundaries(t *testing.T) {
	local := func(int) RoadClass { return ClassLocal }
	for _, unit := range []float64{1000, 250, 0.1, 1.0 / 3, 51.783988052049295, 1e-7, 3e9} {
		up, down := math.Nextafter(unit, math.Inf(1)), math.Nextafter(unit, 0)
		for lname, length := range map[string]func(int) float64{
			"uniform": func(int) float64 { return unit },
			"ulpUp":   func(i int) float64 { return []float64{unit, up}[i%2] },
			"ulpDown": func(i int) float64 { return []float64{unit, unit, down}[i%3] },
			"ulpBoth": func(i int) float64 { return []float64{up, unit, down, unit, unit}[i%5] },
		} {
			for _, oneWay := range []bool{false, true} {
				g := lattice(9, 11, oneWay, local, length)
				for _, bound := range []float64{math.Inf(1), 7 * unit, unit, down / 2} {
					for _, src := range []NodeID{0, 49, NodeID(g.NumNodes() - 1)} {
						requireBothFrontiers(t, lname, g, src, DistanceWeight, bound, true)
					}
				}
			}
		}
	}
	// Two classes whose costs meet at the same Δ through different products.
	g := lattice(8, 8, false,
		func(i int) RoadClass { return RoadClass(i % 2) },
		func(i int) float64 { return []float64{300, 100}[i%2] })
	requireBothFrontiers(t, "twoClasses", g, 27, ClassWeights{1, 3, 1, 1}, math.Inf(1), true)
}

// TestRingIndexStrictlyAdvances pins the inequality ringFor's comment derives,
// at the depth it allows: for a label d in bucket b, a relaxation by the
// cheapest arc lands beyond b and one by the dearest arc lands inside the
// ring, for labels on bucket edges, one ulp off them, and anywhere between,
// out to the last bucket a search may reach.
func TestRingIndexStrictlyAdvances(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, delta := range []float64{51.783988052049295, 9.64978436333194, 1, 0.1, 1.0 / 3, 1e-7, 3e9} {
		for _, span := range []float64{1, 2.1, 370.3} {
			g := lineGraph(1000)
			g.AddBidirectional(0, 1, delta, ClassLocal)
			g.AddBidirectional(1, 2, delta*span, ClassLocal)
			g.Freeze()
			inv, size := g.ringFor(&DistanceWeight, math.Inf(1))
			if size == 0 {
				t.Fatalf("Δ=%v span=%v: ring declined", delta, span)
			}
			bucket := func(d float64) uint32 { return uint32(d * inv) }
			for trial := 0; trial < 20000; trial++ {
				k := float64(rng.Int63n(ringDepth - 2*int64(size)))
				if trial%2 == 0 {
					k = float64(trial / 2)
				}
				d := k * delta
				switch trial % 5 {
				case 1:
					d = math.Nextafter(d, 0)
				case 2:
					d = math.Nextafter(d, math.Inf(1))
				case 3:
					d += rng.Float64() * delta
				}
				if near, far := bucket(d+delta), bucket(d+delta*span); near <= bucket(d) || far-bucket(d) >= uint32(size) {
					t.Fatalf("Δ=%v span=%v d=%v: bucket %d, +Δ lands in %d, +H in %d of a ring of %d",
						delta, span, d, bucket(d), near, far, size)
				}
			}
		}
	}
}

// TestRingDeclined lists the inputs whose searches must run on the heap and
// count a fallback: an arc that costs nothing (a zero length, a zero
// multiplier), a table or a graph that makes Δ or H something other than a
// positive finite number, more buckets than nodes, labels deeper than bucket
// numbers go. All of them still answer as the oracle does.
func TestRingDeclined(t *testing.T) {
	zeroArc := func() *Graph {
		g := lattice(6, 6, false, func(int) RoadClass { return ClassLocal }, func(int) float64 { return 400 })
		h := NewGraph(g.NumNodes()+1, g.NumEdges()+2)
		for i := 0; i < g.NumNodes(); i++ {
			h.AddNode(g.Node(NodeID(i)).P)
		}
		twin := h.AddNode(g.Node(7).P) // on top of node 7: the geodesic length is 0
		for _, e := range g.Edges() {
			h.AddEdge(e.From, e.To, e.Length, e.Class)
		}
		h.AddBidirectional(7, twin, 0, ClassLocal)
		h.Freeze()
		return h
	}()
	mixed := lattice(6, 6, false, func(i int) RoadClass { return RoadClass(i % NumRoadClasses) }, func(int) float64 { return 400 })
	for _, tc := range []struct {
		name  string
		g     *Graph
		cw    ClassWeights
		bound float64
	}{
		{"zero-length arc", zeroArc, DistanceWeight, math.Inf(1)},
		{"zero multiplier", mixed, ClassWeights{1, 0, 1, 1}, math.Inf(1)},
		{"infinite multiplier", mixed, ClassWeights{1, 1, math.Inf(1), 1}, math.Inf(1)},
		{"ring longer than the graph", mixed, ClassWeights{1, 1, 1, 40}, math.Inf(1)},
	} {
		requireBothFrontiers(t, tc.name, tc.g, 7%NodeID(tc.g.NumNodes()), tc.cw, tc.bound, false)
	}
	// What declines the ring is the class that is there, not the table entry
	// of one that is not: mixed has all four, a local-only lattice ignores the
	// zero in another class's place.
	local := lattice(6, 6, false, func(int) RoadClass { return ClassLocal }, func(int) float64 { return 400 })
	requireBothFrontiers(t, "zero multiplier of an absent class", local, 7, ClassWeights{1, 0, 0, 0}, math.Inf(1), true)
	// A graph without arcs has nothing to decline the ring over.
	bare := lineGraph(4)
	bare.Freeze()
	requireBothFrontiers(t, "no arcs", bare, 2, DistanceWeight, math.Inf(1), true)
	// Labels deeper than bucket numbers go take a graph of 2¹⁵·⁵ nodes or more
	// (the ring is no longer than the graph, a path no longer than the ring
	// times the graph); a bound that keeps the search shallow lets the ring
	// back in.
	long := lineGraph(50000)
	for i := 0; i+1 < long.NumNodes(); i++ {
		long.AddBidirectional(NodeID(i), NodeID(i+1), []float64{1, 49000}[i%2], ClassLocal)
	}
	long.Freeze()
	if _, size := long.ringFor(&DistanceWeight, math.Inf(1)); size != 0 {
		t.Fatalf("a search that may reach bucket %d got a ring of %d", 50000*49000, size)
	}
	if _, size := long.ringFor(&DistanceWeight, 1e9); size != 1<<16 {
		t.Fatalf("a search bounded to 1e9 buckets got a ring of %d, want %d", size, 1<<16)
	}
}

// TestRingNegativeTablePanics: a negative multiplier panics before the first
// relaxation even when the graph has no arc of its class — which is when
// ringFor, reading only the classes that are there, lets the ring run.
func TestRingNegativeTablePanics(t *testing.T) {
	g := tinyGraph() // local streets only
	since := countSearches()
	defer func() {
		if r := recover(); r != "roadnet: negative edge weight" {
			t.Fatalf("recovered %v, want the negative-edge-weight panic", r)
		}
		if _, fallbacks := since(); fallbacks != 0 {
			t.Fatal("the search was meant to reach the ring loop")
		}
	}()
	g.ExpandFrom(0, ClassWeights{1, -1, 1, 1}, math.Inf(1))
	t.Fatal("search under a negative class weight returned")
}

// TestRingWrapsManyTimes searches the highway network of the California
// profile to exhaustion: 48 km rural arcs over 50 m urban ones make a ring of
// several hundred buckets, and labels tens of thousands of seconds deep take
// it round several times.
func TestRingWrapsManyTimes(t *testing.T) {
	cfg := DefaultHighwayConfig()
	cfg.Seed = 42
	g := GenerateHighway(cfg)
	cw := TimeClassWeights()
	inv, size := g.ringFor(&cw, math.Inf(1))
	if size < 256 {
		t.Fatalf("ring of %d buckets; the case needs a long one", size)
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 6; trial++ {
		src := NodeID(rng.Intn(g.NumNodes()))
		x := g.ExpandFrom(src, cw, math.Inf(1))
		var deepest float64
		for n := 0; n < g.NumNodes(); n++ {
			if d, ok := x.Dist(NodeID(n)); ok {
				deepest = max(deepest, d)
			}
		}
		x.Release()
		if laps := deepest * inv / float64(size); laps < 3 {
			t.Fatalf("source %d: the ring went round %.1f times, want several", src, laps)
		}
		for _, bound := range []float64{math.Inf(1), deepest / 3} {
			requireBothFrontiers(t, "highway", g, src, cw, bound, true)
		}
	}
}

// TestEarlyTerminationCountedOnBothFrontiers: the early-termination counter
// asks whether frontier remained when the last target settled, which must
// not depend on which frontier that was.
func TestEarlyTerminationCountedOnBothFrontiers(t *testing.T) {
	g := randomSparseGraph(4, 160, 2, true) // the last quarter has no arcs
	cw := DistanceWeight
	var near []NodeID
	g.OutEdges(0, func(e Edge) { near = append(near, e.To) })
	defer func() { heapOnly = false }()
	for _, heapOnly = range []bool{false, true} {
		since := countSearches()
		before := met.manyEarlyTerms.Value()
		g.ExpandToMany(0, near, cw, math.Inf(1)).Release()
		if met.manyEarlyTerms.Value() != before+1 {
			t.Fatalf("heapOnly=%v: a search to the source's neighbours was not counted as cut short", heapOnly)
		}
		g.ExpandToMany(0, []NodeID{near[0], NodeID(g.NumNodes() - 1)}, cw, math.Inf(1)).Release()
		if met.manyEarlyTerms.Value() != before+1 {
			t.Fatalf("heapOnly=%v: a search that exhausted its frontier was counted as cut short", heapOnly)
		}
		if _, fallbacks := since(); (fallbacks != 0) != heapOnly {
			t.Fatalf("heapOnly=%v: %d fallbacks", heapOnly, fallbacks)
		}
	}
}

// FuzzExpandFrontiers holds the two frontiers to the oracle, and so to each
// other, on fuzzer-chosen graphs whose arc lengths are built to sit on bucket
// edges or to rule the ring out: uniform lengths, lengths one ulp off, a
// zero-length arc, a zero multiplier, arcs six orders of magnitude apart.
func FuzzExpandFrontiers(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(2), uint8(0), uint8(0), float64(2500), int64(9), uint8(8), false)
	f.Add(int64(2), uint8(120), uint8(3), uint8(1), uint8(1), math.Inf(1), int64(3), uint8(0), true) // lattice: every label k·Δ
	f.Add(int64(3), uint8(90), uint8(3), uint8(2), uint8(1), float64(1750), int64(4), uint8(20), false)
	f.Add(int64(4), uint8(40), uint8(2), uint8(3), uint8(0), math.Inf(1), int64(5), uint8(30), true)    // zero-length arc
	f.Add(int64(5), uint8(70), uint8(1), uint8(0), uint8(3), math.Inf(1), int64(6), uint8(12), false)   // zero multiplier
	f.Add(int64(6), uint8(200), uint8(3), uint8(4), uint8(2), float64(40000), int64(7), uint8(9), true) // ring longer than the graph
	f.Fuzz(func(t *testing.T, gseed int64, nRaw, degRaw, lengths, table uint8, bound float64, tseed int64, nTargets uint8, reverse bool) {
		n := 8 + int(nRaw)%200
		rng := rand.New(rand.NewSource(gseed))
		length := map[uint8]func() float64{
			0: func() float64 { return 100 + rng.Float64()*5000 },
			1: func() float64 { return 250 },
			2: func() float64 {
				return []float64{250, math.Nextafter(250, 0), math.Nextafter(250, 500)}[rng.Intn(3)]
			},
			3: func() float64 { return 100 + rng.Float64()*900 },
			4: func() float64 { return []float64{0.03, 1, 30000}[rng.Intn(3)] },
		}[lengths%5]
		g := NewGraph(n, 0)
		for i := 0; i < n; i++ {
			g.AddNode(geo.Point{Lat: 53 + rng.Float64()*0.3, Lon: 8 + rng.Float64()*0.5})
		}
		if lengths%5 == 3 {
			twin := g.AddNode(g.Node(0).P)
			g.AddBidirectional(0, twin, 0, ClassLocal) // geodesic length: 0
		}
		for i := 0; i < n; i++ {
			for d := 0; d <= int(degRaw)%4; d++ {
				to, class := NodeID(rng.Intn(n)), RoadClass(rng.Intn(NumRoadClasses))
				if gseed%2 == 0 {
					g.AddBidirectional(NodeID(i), to, length(), class)
				} else {
					g.AddEdge(NodeID(i), to, length(), class)
				}
			}
		}
		g.Freeze()
		cw := []ClassWeights{TimeClassWeights(), DistanceWeight, {0.9, 1.7, 0.4, 2.3}, {1, 0, 1, 1}}[table%4]
		if math.IsNaN(bound) || bound < 0 {
			bound = math.Inf(1)
		}

		rng = rand.New(rand.NewSource(tseed))
		src := NodeID(rng.Intn(g.NumNodes()))
		targets := []NodeID{src}
		for i := 0; i < int(nTargets); i++ {
			targets = append(targets, NodeID(rng.Intn(g.NumNodes()+6)-3))
		}
		var want map[NodeID]float64
		if reverse {
			want = refDistancesTo(g, src, cw, bound)
		} else {
			want, _ = refDijkstra(g, src, Invalid, cw, bound)
		}
		defer func() { heapOnly = false }()
		for _, heapOnly = range []bool{false, true} {
			var x Expansion
			if reverse {
				x = g.ExpandToManyReverse(src, targets, cw, bound)
			} else {
				x = g.ExpandToMany(src, targets, cw, bound)
			}
			for _, tgt := range targets {
				wd, wok := want[tgt]
				gd, gok := x.Dist(tgt)
				if gok != wok || gok && math.Float64bits(gd) != math.Float64bits(wd) {
					t.Fatalf("heapOnly=%v reverse=%v target %d: got %v %v, oracle %v %v", heapOnly, reverse, tgt, gd, gok, wd, wok)
				}
			}
			x.Release()
		}
	})
}
