package roadnet

import (
	"ecocharge/internal/geo"
)

// All point-to-point and expansion queries below run on the flat kernel in
// flat.go: pooled search states with generation-stamped per-node slots
// replace the per-call map[NodeID] bookkeeping of the original
// implementation. The differential suite in flat_test.go proves each query
// equivalent to its map-backed predecessor before that code was deleted.

// ShortestPath runs Dijkstra from src to dst under the weight function.
// It returns the path and true, or a zero path and false when dst is
// unreachable. Negative weights are a caller bug and panic.
func (g *Graph) ShortestPath(src, dst NodeID, w WeightFunc) (Path, bool) {
	g.mustFrozen()
	if !g.validID(src) || !g.validID(dst) {
		return Path{}, false
	}
	st := g.acquireState()
	defer st.release()
	st.run(src, dst, w, nil, unreachable, false)
	if !st.reached(dst) {
		return Path{}, false
	}
	return Path{Nodes: st.path(src, dst), Weight: st.slots[dst].dist}, true
}

// ShortestDistance returns only the weight of the shortest src→dst path,
// or +Inf when unreachable.
func (g *Graph) ShortestDistance(src, dst NodeID, w WeightFunc) float64 {
	g.mustFrozen()
	if !g.validID(src) || !g.validID(dst) {
		return unreachable
	}
	st := g.acquireState()
	defer st.release()
	st.run(src, dst, w, nil, unreachable, false)
	if !st.reached(dst) {
		return unreachable
	}
	return st.slots[dst].dist
}

// DistancesWithin runs a bounded Dijkstra from src, returning the weight of
// every node reachable within maxWeight. This is the map-shaped convenience
// form of the network-expansion primitive; hot callers use ExpandFrom and
// read the dense arrays directly through Expansion.
//
//ecolint:ignore hotalloc map-shaped convenience API; hot callers use ExpandFrom
func (g *Graph) DistancesWithin(src NodeID, w WeightFunc, maxWeight float64) map[NodeID]float64 {
	g.mustFrozen()
	if !g.validID(src) {
		return nil
	}
	st := g.acquireState()
	defer st.release()
	st.run(src, Invalid, w, nil, maxWeight, false)
	return st.toMap()
}

// DistancesTo runs a bounded Dijkstra on the reverse graph, yielding the
// weight of reaching dst from every node within maxWeight. Map-shaped
// convenience form of ExpandTo, used for the return-to-route leg.
//
//ecolint:ignore hotalloc map-shaped convenience API; hot callers use ExpandTo
func (g *Graph) DistancesTo(dst NodeID, w WeightFunc, maxWeight float64) map[NodeID]float64 {
	g.mustFrozen()
	if !g.validID(dst) {
		return nil
	}
	st := g.acquireState()
	defer st.release()
	st.run(dst, Invalid, w, nil, maxWeight, true)
	return st.toMap()
}

// AStar runs A* from src to dst under the weight function, using a
// haversine-based admissible heuristic scaled by heuristicScale. For the
// distance metric pass 1.0; for time metrics pass the inverse of the
// maximum speed so the heuristic stays admissible. The scale must not be
// negative: frontier priorities are ordered as non-negative numbers.
func (g *Graph) AStar(src, dst NodeID, w WeightFunc, heuristicScale float64) (Path, bool) {
	g.mustFrozen()
	if !g.validID(src) || !g.validID(dst) {
		return Path{}, false
	}
	target := g.nodes[dst].P
	h := func(id NodeID) float64 {
		return geo.Distance(g.nodes[id].P, target) * heuristicScale
	}
	st := g.acquireState()
	defer st.release()
	st.seed(src, h(src))
	for len(st.pq.items) > 0 {
		cur := st.pq.pop()
		if !st.settle(cur.node) {
			continue
		}
		if cur.node == dst {
			return Path{Nodes: st.path(src, dst), Weight: st.slots[dst].dist}, true
		}
		base := st.slots[cur.node].dist
		for _, a := range g.fwd.row(cur.node) {
			nd := base + weigh(w, cur.node, a, false)
			if st.improve(a.to, cur.node, nd) {
				st.pq.push(a.to, nd+h(a.to))
			}
		}
	}
	return Path{}, false
}
