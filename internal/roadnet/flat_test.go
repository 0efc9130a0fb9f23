package roadnet

// Differential property suite for the flat kernel (flat.go): every query is
// replayed against a map-backed reference Dijkstra — a faithful copy of the
// implementation the kernel replaced — and results must match bit for bit.
// This mirrors the seq≡par methodology of the parallel-engine PR: the old
// code path became the test oracle before it was deleted.

import (
	"container/heap"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ecocharge/internal/geo"
)

// --- map-backed reference implementation (the pre-flat code, verbatim) ---

type refItem struct {
	node NodeID
	prio float64
}

type refHeap []refItem

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].prio < h[j].prio }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refAdjacency is the pre-CSR adjacency — per-node edge lists in insertion
// order — rebuilt from Edges() so the oracle shares nothing with the
// kernel's CSR rows and a wrong row order shows up as a path mismatch.
type refAdjacency struct{ out, in [][]Edge }

var refAdjCache sync.Map // *Graph -> *refAdjacency

func refAdj(g *Graph) *refAdjacency {
	if a, ok := refAdjCache.Load(g); ok {
		return a.(*refAdjacency)
	}
	a := &refAdjacency{out: make([][]Edge, g.NumNodes()), in: make([][]Edge, g.NumNodes())}
	for _, e := range g.Edges() {
		a.out[e.From] = append(a.out[e.From], e)
		a.in[e.To] = append(a.in[e.To], e)
	}
	refAdjCache.Store(g, a)
	return a
}

// refDijkstra is the old (*Graph).dijkstra: forward search with maps.
func refDijkstra(g *Graph, src, dst NodeID, cw ClassWeights, maxWeight float64) (map[NodeID]float64, map[NodeID]NodeID) {
	if !g.validID(src) {
		return nil, nil
	}
	dist := map[NodeID]float64{src: 0}
	prev := make(map[NodeID]NodeID)
	done := make(map[NodeID]bool)
	pq := &refHeap{{node: src, prio: 0}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(refItem)
		if done[cur.node] {
			continue
		}
		done[cur.node] = true
		if cur.node == dst {
			break
		}
		for _, e := range refAdj(g).out[cur.node] {
			wt := cw.CostOf(e)
			nd := dist[cur.node] + wt
			if nd > maxWeight {
				continue
			}
			if old, ok := dist[e.To]; !ok || nd < old {
				dist[e.To] = nd
				prev[e.To] = cur.node
				heap.Push(pq, refItem{node: e.To, prio: nd})
			}
		}
	}
	return dist, prev
}

// refDistancesTo is the reverse search with maps: distances to dst.
func refDistancesTo(g *Graph, dst NodeID, cw ClassWeights, maxWeight float64) map[NodeID]float64 {
	if !g.validID(dst) {
		return nil
	}
	dist := map[NodeID]float64{dst: 0}
	done := make(map[NodeID]bool)
	pq := &refHeap{{node: dst, prio: 0}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(refItem)
		if done[cur.node] {
			continue
		}
		done[cur.node] = true
		for _, e := range refAdj(g).in[cur.node] {
			wt := cw.CostOf(e)
			nd := dist[cur.node] + wt
			if nd > maxWeight {
				continue
			}
			if old, ok := dist[e.From]; !ok || nd < old {
				dist[e.From] = nd
				heap.Push(pq, refItem{node: e.From, prio: nd})
			}
		}
	}
	return dist
}

// --- graph fixtures ---

// randomSparseGraph builds a graph of n nodes with roughly deg directed
// edges per node and random classes; with isolateTail, the last quarter of
// the nodes gets no edges at all (disconnected components).
func randomSparseGraph(seed int64, n, deg int, isolateTail bool) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n, n*deg)
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{
			Lat: 53 + rng.Float64()*0.3,
			Lon: 8 + rng.Float64()*0.5,
		})
	}
	connected := n
	if isolateTail {
		connected = n - n/4
	}
	for i := 0; i < connected; i++ {
		for d := 0; d < deg; d++ {
			to := NodeID(rng.Intn(connected))
			if to == NodeID(i) {
				continue
			}
			length := 100 + rng.Float64()*5000
			g.AddEdge(NodeID(i), to, length, RoadClass(rng.Intn(NumRoadClasses)))
		}
	}
	g.Freeze()
	return g
}

func smallUrban(seed int64) *Graph {
	cfg := DefaultUrbanConfig()
	cfg.WidthKM, cfg.HeightKM = 4, 3
	cfg.Seed = seed
	return GenerateUrban(cfg)
}

func diffGraphs() map[string]*Graph {
	return map[string]*Graph{
		"tiny":         tinyGraph(),
		"urban1":       smallUrban(1),
		"urban7":       smallUrban(7),
		"sparse":       randomSparseGraph(3, 200, 3, false),
		"disconnected": randomSparseGraph(4, 160, 2, true),
		"loops":        randomSparseGraphWithLoops(5, 120),
	}
}

// randomSparseGraphWithLoops adds self loops and parallel edges on top of a
// random base, the degenerate shapes the kernel must tolerate.
func randomSparseGraphWithLoops(seed int64, n int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n, n*4)
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{Lat: 53 + rng.Float64()*0.2, Lon: 8 + rng.Float64()*0.3})
	}
	for i := 0; i < n; i++ {
		g.AddEdge(NodeID(i), NodeID((i+1)%n), 500+rng.Float64()*1000, ClassLocal)
		if rng.Intn(4) == 0 {
			g.AddEdge(NodeID(i), NodeID(i), 100, ClassLocal) // self loop
		}
		if rng.Intn(3) == 0 {
			to := NodeID(rng.Intn(n))
			g.AddEdge(NodeID(i), to, 900, ClassArterial)
			g.AddEdge(NodeID(i), to, 1100, ClassArterial) // parallel
		}
	}
	g.Freeze()
	return g
}

func diffTables() map[string]ClassWeights {
	skew := ClassWeights{0.9, 1.7, 0.4, 2.3}
	return map[string]ClassWeights{
		"distance": DistanceWeight,
		"time":     TimeClassWeights(),
		"skew":     skew,
	}
}

// expansionToMap reads every node of the flat expansion into a map so it can
// be compared against the reference output.
func expansionToMap(g *Graph, x Expansion) map[NodeID]float64 {
	out := make(map[NodeID]float64)
	for n := 0; n < g.NumNodes(); n++ {
		if d, ok := x.Dist(NodeID(n)); ok {
			out[NodeID(n)] = d
		}
	}
	return out
}

func requireSameDistances(t *testing.T, got, want map[NodeID]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("reached-set size: got %d nodes, want %d", len(got), len(want))
	}
	for n, w := range want {
		gv, ok := got[n]
		if !ok {
			t.Fatalf("node %d missing from flat result (want %v)", n, w)
		}
		if math.Float64bits(gv) != math.Float64bits(w) {
			t.Fatalf("node %d: flat %v (%x) != reference %v (%x)",
				n, gv, math.Float64bits(gv), w, math.Float64bits(w))
		}
	}
}

// TestFlatExpansionMatchesMapKernel is the core differential property: for
// random graphs, disconnected components, multiple weight tables, bounded
// and unbounded searches, forward and reverse direction, the flat kernel
// must reproduce the map implementation's reached set and distances bit for
// bit.
func TestFlatExpansionMatchesMapKernel(t *testing.T) {
	for gname, g := range diffGraphs() {
		for tname, cw := range diffTables() {
			rng := rand.New(rand.NewSource(99))
			for trial := 0; trial < 8; trial++ {
				src := NodeID(rng.Intn(g.NumNodes()))
				for _, bound := range []float64{math.Inf(1), 1500, 4000} {
					// Forward.
					want, _ := refDijkstra(g, src, Invalid, cw, bound)
					x := g.ExpandFrom(src, cw, bound)
					got := expansionToMap(g, x)
					x.Release()
					requireSameDistances(t, got, want)

					// Reverse.
					wantR := refDistancesTo(g, src, cw, bound)
					xr := g.ExpandTo(src, cw, bound)
					gotR := expansionToMap(g, xr)
					xr.Release()
					requireSameDistances(t, gotR, wantR)
				}
				_ = gname
				_ = tname
			}
		}
	}
}

// TestFlatExpansionBoundEdge pins the bound-inclusion rule: a node whose
// distance equals maxWeight exactly stays in the reached set (the skip is
// nd > maxWeight, strictly greater).
func TestFlatExpansionBoundEdge(t *testing.T) {
	g := tinyGraph()
	cw := DistanceWeight
	// Node 4 is exactly 4000 m from node 0.
	x := g.ExpandFrom(0, cw, 4000)
	defer x.Release()
	if d, ok := x.Dist(4); !ok || d != 4000 {
		t.Fatalf("node on the bound: dist=%v ok=%v, want 4000 true", d, ok)
	}
	y := g.ExpandFrom(0, cw, 3999.999)
	defer y.Release()
	if _, ok := y.Dist(4); ok {
		t.Fatal("node beyond the bound must not be reached")
	}
}

// TestFlatPointQueriesMatchReference checks ShortestPath against the
// reference for random node pairs, including pairs with no connecting path.
func TestFlatPointQueriesMatchReference(t *testing.T) {
	for gname, g := range diffGraphs() {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 20; trial++ {
			src := NodeID(rng.Intn(g.NumNodes()))
			dst := NodeID(rng.Intn(g.NumNodes()))
			want, _ := refDijkstra(g, src, Invalid, DistanceWeight, math.Inf(1))
			wantD, reachable := want[dst]

			p, ok := g.ShortestPath(src, dst, DistanceWeight)
			if ok != reachable {
				t.Fatalf("%s %d->%d: ShortestPath ok=%v, reference reachable=%v", gname, src, dst, ok, reachable)
			}
			if ok {
				if math.Float64bits(p.Weight) != math.Float64bits(wantD) {
					t.Fatalf("%s %d->%d: weight %v != reference %v", gname, src, dst, p.Weight, wantD)
				}
				if p.Nodes[0] != src || p.Nodes[len(p.Nodes)-1] != dst {
					t.Fatalf("%s %d->%d: bad endpoints %v", gname, src, dst, p.Nodes)
				}
				// The path must really cost its claimed weight.
				if got := pathWeight(g, p.Nodes, DistanceWeight); math.Abs(got-p.Weight) > 1e-6 {
					t.Fatalf("%s %d->%d: path sums to %v, claims %v", gname, src, dst, got, p.Weight)
				}
			}
		}
	}
}

func pathWeight(g *Graph, nodes []NodeID, cw ClassWeights) float64 {
	var total float64
	for i := 1; i < len(nodes); i++ {
		best := math.Inf(1)
		g.OutEdges(nodes[i-1], func(e Edge) {
			if e.To == nodes[i] {
				if wt := cw.CostOf(e); wt < best {
					best = wt
				}
			}
		})
		total += best
	}
	return total
}

// TestSearchStateStampWrap forces the generation counter through its uint32
// wrap-around and checks the arrays are cleanly reset instead of aliasing
// four-billion-search-old entries.
func TestSearchStateStampWrap(t *testing.T) {
	g := tinyGraph()
	st := newSearchState(g)
	st.stamp = math.MaxUint32 - 1
	// Fake stale data that would alias stamp 1 after a naive wrap.
	for i := range st.slots {
		st.slots[i] = nodeSlot{dist: -123, seen: 1, done: 1}
	}
	st.begin() // -> MaxUint32
	if st.stamp != math.MaxUint32 {
		t.Fatalf("stamp = %d, want MaxUint32", st.stamp)
	}
	st.run(0, Invalid, &DistanceWeight, math.Inf(1), false)
	st.inUse = true
	st.begin() // wraps to 0 -> cleared, stamp 1
	if st.stamp != 1 {
		t.Fatalf("stamp after wrap = %d, want 1", st.stamp)
	}
	if st.reached(3) {
		t.Fatal("stale seen entry survived the wrap")
	}
	st.run(0, Invalid, &DistanceWeight, math.Inf(1), false)
	if d, ok := st.slots[4].dist, st.reached(4); !ok || d != 4000 {
		t.Fatalf("post-wrap search: dist[4]=%v reached=%v, want 4000 true", d, ok)
	}
}

// TestExpansionZeroAllocSteadyState asserts the acceptance criterion
// directly: once the pool is warm, a bounded expansion plus release
// allocates nothing.
func TestExpansionZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	g := smallUrban(2)
	cw := TimeClassWeights()
	src := NodeID(0)
	// Warm the pool and the heap backing array.
	for i := 0; i < 4; i++ {
		x := g.ExpandFrom(src, cw, 600)
		x.Release()
	}
	allocs := testing.AllocsPerRun(50, func() {
		x := g.ExpandFrom(src, cw, 600)
		x.Release()
	})
	if allocs != 0 {
		t.Fatalf("steady-state expansion allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestConcurrentExpansions runs many expansions from different goroutines
// against one graph; under -race this proves the pooled states do not
// share mutable scratch. Results must match the sequential reference.
func TestConcurrentExpansions(t *testing.T) {
	g := smallUrban(3)
	cw := DistanceWeight
	srcs := []NodeID{0, 5, 11, 17}
	wants := make([]map[NodeID]float64, len(srcs))
	for i, s := range srcs {
		wants[i], _ = refDijkstra(g, s, Invalid, cw, 3000)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for rep := 0; rep < 4; rep++ {
		for i, s := range srcs {
			wg.Add(1)
			go func(i int, s NodeID) {
				defer wg.Done()
				for k := 0; k < 8; k++ {
					x := g.ExpandFrom(s, cw, 3000)
					for n, want := range wants[i] {
						if d, ok := x.Dist(n); !ok || math.Float64bits(d) != math.Float64bits(want) {
							errs <- "concurrent expansion diverged from reference"
							break
						}
					}
					x.Release()
				}
			}(i, s)
		}
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestHeap4PopsAscending is the heap property test: any push sequence pops
// in non-decreasing priority order and returns every element exactly once.
func TestHeap4PopsAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		var h heap4
		n := rng.Intn(200)
		sum := 0
		for i := 0; i < n; i++ {
			node := NodeID(rng.Intn(1000))
			sum += int(node)
			h.push(node, rng.Float64()*100)
		}
		prevPrio := math.Inf(-1)
		popped := 0
		for len(h.items) > 0 {
			it := h.pop()
			if it.prio < prevPrio {
				t.Fatalf("trial %d: pop order violated: %v after %v", trial, it.prio, prevPrio)
			}
			prevPrio = it.prio
			sum -= int(it.node)
			popped++
		}
		if popped != n || sum != 0 {
			t.Fatalf("trial %d: popped %d of %d items (residual node sum %d)", trial, popped, n, sum)
		}
	}
}

// TestExpansionInvalidAndReleased covers the defensive surface: invalid
// origins yield empty (but releasable) expansions, the zero Expansion is
// inert, and Dist rejects out-of-range nodes.
func TestExpansionInvalidAndReleased(t *testing.T) {
	g := tinyGraph()
	x := g.ExpandFrom(Invalid, DistanceWeight, math.Inf(1))
	for n := 0; n < g.NumNodes(); n++ {
		if _, ok := x.Dist(NodeID(n)); ok {
			t.Fatalf("invalid-origin expansion reached node %d", n)
		}
	}
	x.Release()
	x.Release() // double release is a no-op

	var zero Expansion
	if _, ok := zero.Dist(0); ok {
		t.Fatal("zero Expansion claims to reach node 0")
	}
	zero.Release()

	y := g.ExpandFrom(0, DistanceWeight, math.Inf(1))
	defer y.Release()
	if _, ok := y.Dist(-5); ok {
		t.Fatal("negative node id reached")
	}
	if _, ok := y.Dist(NodeID(g.NumNodes())); ok {
		t.Fatal("out-of-range node id reached")
	}
}
