package cknn

// Differential suite for the slice-backed DeroutingMaps: a faithful copy of
// the old map-backed implementation (four materialized maps, scaleMap
// copies, lookup defaults) over a test-local map Dijkstra serves as the
// oracle, and the flat version must reproduce its Cost and TravelTo outputs
// bit for bit over every node of the graph, for both the exact and the
// approximate variant. Together with the kernel-level differential suite in
// roadnet/flat_test.go this proves the flat pipeline equivalent to the code
// it replaced.

import (
	"container/heap"
	"math"
	"testing"

	"ecocharge/internal/interval"
	"ecocharge/internal/roadnet"
)

type mapItem struct {
	node roadnet.NodeID
	dist float64
}

type mapHeap []mapItem

func (h mapHeap) Len() int           { return len(h) }
func (h mapHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h mapHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *mapHeap) Push(x any)        { *h = append(*h, x.(mapItem)) }
func (h *mapHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// mapDijkstra is the oracle's road search: a textbook Dijkstra on maps over
// Graph.Edges, sharing nothing with the roadnet kernel but the way an edge
// is priced. It returns the weight of every node within maxWeight of origin
// — or, with reverse, from which origin is within maxWeight.
func mapDijkstra(g *roadnet.Graph, origin roadnet.NodeID, cw roadnet.ClassWeights, maxWeight float64, reverse bool) map[roadnet.NodeID]float64 {
	adj := make(map[roadnet.NodeID][]roadnet.Edge)
	for _, e := range g.Edges() {
		if reverse {
			e.From, e.To = e.To, e.From
		}
		adj[e.From] = append(adj[e.From], e)
	}
	dist := map[roadnet.NodeID]float64{origin: 0}
	done := make(map[roadnet.NodeID]bool)
	pq := &mapHeap{{node: origin}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(mapItem)
		if done[cur.node] {
			continue
		}
		done[cur.node] = true
		for _, e := range adj[cur.node] {
			nd := dist[cur.node] + cw.CostOf(e)
			if nd > maxWeight {
				continue
			}
			if old, ok := dist[e.To]; !ok || nd < old {
				dist[e.To] = nd
				heap.Push(pq, mapItem{node: e.To, dist: nd})
			}
		}
	}
	return dist
}

func lookup(m map[roadnet.NodeID]float64, id roadnet.NodeID, def float64) float64 {
	if v, ok := m[id]; ok {
		return v
	}
	return def
}

// refDerouting is the old DeroutingMaps shape: four materialized maps.
type refDerouting struct {
	fwdLo, fwdHi map[roadnet.NodeID]float64
	retLo, retHi map[roadnet.NodeID]float64
	baseLo       float64
	baseHi       float64
}

// refDeroutingExact replicates the old map-backed exact builder: two legs
// under each of the two weight tables, whatever the graph or the query.
func refDeroutingExact(env *Env, q Query, boundSec float64) refDerouting {
	lower, upper := env.Traffic.ClassWeightTables(q.ETABase, q.Now)
	var d refDerouting
	d.fwdLo = mapDijkstra(env.Graph, q.AnchorNode, lower, boundSec, false)
	d.fwdHi = mapDijkstra(env.Graph, q.AnchorNode, upper, boundSec, false)
	ret := q.ReturnNode
	if ret < 0 {
		ret = q.AnchorNode
	}
	d.retLo = mapDijkstra(env.Graph, ret, lower, boundSec, true)
	d.retHi = mapDijkstra(env.Graph, ret, upper, boundSec, true)
	d.baseLo = lookup(d.fwdLo, ret, math.Inf(1))
	d.baseHi = lookup(d.fwdHi, ret, math.Inf(1))
	if math.IsInf(d.baseLo, 1) {
		d.baseLo, d.baseHi = 0, 0
	}
	return d
}

// refDeroutingApprox replicates the old map-backed approximate builder: one
// expansion per direction under mid weights, full-map scaled copies for the
// lo and hi views.
func refDeroutingApprox(env *Env, q Query, boundSec float64) refDerouting {
	loT, hiT := env.Traffic.ClassWeightTables(q.ETABase, q.Now)
	var midT roadnet.ClassWeights
	loRatio, hiRatio := 1.0, 1.0
	for c := range midT {
		midT[c] = (loT[c] + hiT[c]) / 2
		if midT[c] <= 0 {
			continue
		}
		if r := loT[c] / midT[c]; r < loRatio {
			loRatio = r
		}
		if r := hiT[c] / midT[c]; r > hiRatio {
			hiRatio = r
		}
	}
	ret := q.ReturnNode
	if ret < 0 {
		ret = q.AnchorNode
	}
	fwd := mapDijkstra(env.Graph, q.AnchorNode, midT, boundSec, false)
	rev := mapDijkstra(env.Graph, ret, midT, boundSec, true)

	scale := func(m map[roadnet.NodeID]float64, s float64) map[roadnet.NodeID]float64 {
		if s == 1 {
			return m
		}
		out := make(map[roadnet.NodeID]float64, len(m))
		for k, v := range m {
			out[k] = v * s
		}
		return out
	}
	var d refDerouting
	d.fwdLo = scale(fwd, loRatio)
	d.fwdHi = scale(fwd, hiRatio)
	d.retLo = scale(rev, loRatio)
	d.retHi = scale(rev, hiRatio)
	base := lookup(fwd, ret, math.Inf(1))
	if math.IsInf(base, 1) {
		d.baseLo, d.baseHi = 0, 0
	} else {
		d.baseLo, d.baseHi = base*loRatio, base*hiRatio
	}
	return d
}

// cost is the old DeroutingMaps.Cost, verbatim.
func (d refDerouting) cost(n roadnet.NodeID) (interval.I, bool) {
	fLo, ok1 := d.fwdLo[n]
	rLo, ok2 := d.retLo[n]
	if !ok1 || !ok2 {
		return interval.I{}, false
	}
	fHi := lookup(d.fwdHi, n, fLo)
	rHi := lookup(d.retHi, n, rLo)
	lo := fLo + rLo - d.baseHi
	hi := fHi + rHi - d.baseLo
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	return interval.New(lo, hi), true
}

// travelTo is the old DeroutingMaps.TravelTo, verbatim.
func (d refDerouting) travelTo(n roadnet.NodeID) (interval.I, bool) {
	lo, ok := d.fwdLo[n]
	if !ok {
		return interval.I{}, false
	}
	hi := lookup(d.fwdHi, n, lo)
	if hi < lo {
		hi = lo
	}
	return interval.New(lo, hi), true
}

func sameInterval(a, b interval.I) bool {
	return math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}

// TestDeroutingMapsMatchMapImplementation is the cknn-level differential
// property: over every node of the graph, both derouting variants must
// price visits bit-identically to the old map machinery, bounded and
// unbounded, for anchored and distinct return nodes.
func TestDeroutingMapsMatchMapImplementation(t *testing.T) {
	env := testEnv(t)
	base := testQuery(env).normalized()
	distinctRet := base
	distinctRet.ReturnNode = roadnet.NodeID(env.Graph.NumNodes() / 3)
	noRet := base
	noRet.ReturnNode = -1

	for qname, q := range map[string]Query{
		"anchored": base, "distinctReturn": distinctRet, "defaultReturn": noRet,
	} {
		for _, bound := range []float64{math.Inf(1), 600, q.RadiusM / avgUrbanSpeed} {
			flatE := env.deroutingMaps(q, bound, nil, exactBounds)
			refE := refDeroutingExact(env, q, bound)
			compareDerouting(t, env, qname+"/exact", flatE, refE)
			flatE.Release()

			flatA := env.deroutingMaps(q, bound, nil, approxBounds)
			refA := refDeroutingApprox(env, q, bound)
			compareDerouting(t, env, qname+"/approx", flatA, refA)
			flatA.Release()
		}
	}
}

func compareDerouting(t *testing.T, env *Env, label string, flat DeroutingMaps, ref refDerouting) {
	t.Helper()
	priced := 0
	for n := 0; n < env.Graph.NumNodes(); n++ {
		id := roadnet.NodeID(n)
		fc, fok := flat.Cost(id)
		rc, rok := ref.cost(id)
		if fok != rok {
			t.Fatalf("%s node %d: Cost reachability flat=%v ref=%v", label, n, fok, rok)
		}
		if fok {
			priced++
			if !sameInterval(fc, rc) {
				t.Fatalf("%s node %d: Cost flat=%v ref=%v", label, n, fc, rc)
			}
		}
		ft, fok2 := flat.TravelTo(id)
		rt, rok2 := ref.travelTo(id)
		if fok2 != rok2 {
			t.Fatalf("%s node %d: TravelTo reachability flat=%v ref=%v", label, n, fok2, rok2)
		}
		if fok2 && !sameInterval(ft, rt) {
			t.Fatalf("%s node %d: TravelTo flat=%v ref=%v", label, n, ft, rt)
		}
	}
	if priced == 0 {
		t.Fatalf("%s: no node was priced; the comparison is vacuous", label)
	}
}

// TestTruthMapsMatchMapOracle holds the truth scoring's road distances — what
// TruthComponents reads for every charger, both legs, and the on-route
// baseline — to the map Dijkstra under TruthClassWeights, bit for bit: on the
// urban fixture (a round trip on a symmetric graph: one expansion read both
// ways), on a directed graph, and for trip-segment queries that rejoin the
// route elsewhere (two expansions each).
func TestTruthMapsMatchMapOracle(t *testing.T) {
	urban := testEnv(t)
	directed := envOn(t, oneWayShortcutsGraph(3, 300), 60, 3)
	segment := func(env *Env) Query {
		q := testQuery(env)
		q.ReturnNode = roadnet.NodeID(env.Graph.NumNodes() / 3)
		return q
	}
	for name, tc := range map[string]struct {
		env        *Env
		q          Query
		expansions uint64
	}{
		"urban":            {urban, testQuery(urban), 1},
		"urban/segment":    {urban, segment(urban), 2},
		"directed":         {directed, testQuery(directed), 2},
		"directed/segment": {directed, segment(directed), 2},
	} {
		env, q := tc.env, tc.q
		before, _ := expansionsStarted()
		tm := (&Engine{Env: env}).TruthMaps(q)
		if after, _ := expansionsStarted(); after-before != tc.expansions {
			t.Errorf("%s: TruthMaps ran %d expansions, want %d", name, after-before, tc.expansions)
		}
		cw := env.Traffic.TruthClassWeights(q.ETABase)
		wantFwd := mapDijkstra(env.Graph, q.AnchorNode, cw, math.Inf(1), false)
		wantRet := mapDijkstra(env.Graph, q.ReturnNode, cw, math.Inf(1), true)
		if want := lookup(wantFwd, q.ReturnNode, 0); math.Float64bits(tm.base) != math.Float64bits(want) {
			t.Errorf("%s: baseline %v, oracle %v", name, tm.base, want)
		}
		for _, c := range env.Chargers.All() {
			for leg, m := range map[string][2]map[roadnet.NodeID]float64{"outbound": {tm.fwd, wantFwd}, "return": {tm.ret, wantRet}} {
				got, ok := m[0][c.Node]
				want, wok := m[1][c.Node]
				if ok != wok || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s charger %d %s leg: %v (reached %v), oracle %v (reached %v)", name, c.ID, leg, got, ok, want, wok)
				}
			}
		}
	}
}

// TestDeroutingMapsZeroAllocSteadyState asserts the hot path's allocation
// budget: once the search pool is warm, building, reading and releasing the
// derouting expansions allocates nothing.
func TestDeroutingMapsZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	env := testEnv(t)
	q := testQuery(env).normalized()
	budget := q.RadiusM / avgUrbanSpeed
	nodes := []roadnet.NodeID{0, roadnet.NodeID(env.Graph.NumNodes() / 2), roadnet.NodeID(env.Graph.NumNodes() - 1)}
	for i := 0; i < 4; i++ { // warm the pool (4 states live at once in exact mode)
		d := env.deroutingMaps(q, budget, nil, exactBounds)
		d.Release()
	}
	for name, run := range map[string]func() DeroutingMaps{
		"exact":  func() DeroutingMaps { return env.deroutingMaps(q, budget, nil, exactBounds) },
		"approx": func() DeroutingMaps { return env.deroutingMaps(q, budget, nil, approxBounds) },
	} {
		allocs := testing.AllocsPerRun(20, func() {
			d := run()
			for _, n := range nodes {
				d.Cost(n)
				d.TravelTo(n)
			}
			d.Release()
		})
		if allocs != 0 {
			t.Errorf("%s derouting allocates %.1f allocs/op steady-state, want 0", name, allocs)
		}
	}
}

// BenchmarkDeroutingMaps measures the derouting hot path end to end:
// expansions plus a Cost read per charger, exact and approximate variants.
func BenchmarkDeroutingMaps(b *testing.B) {
	env := testEnv(b)
	q := testQuery(env).normalized()
	budget := q.RadiusM / avgUrbanSpeed
	chargers := env.Chargers.All()
	for _, bench := range []struct {
		name string
		run  func() DeroutingMaps
	}{
		{"exact", func() DeroutingMaps { return env.deroutingMaps(q, budget, nil, exactBounds) }},
		{"approx", func() DeroutingMaps { return env.deroutingMaps(q, budget, nil, approxBounds) }},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := bench.run()
				for j := range chargers {
					d.Cost(chargers[j].Node)
				}
				d.Release()
			}
		})
	}
}
