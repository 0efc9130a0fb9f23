package roadnet

import (
	"math"
)

// BidirectionalShortestPath runs Dijkstra simultaneously from src (forward)
// and dst (backward on the reverse graph), terminating when the frontiers
// guarantee the best meeting point is settled. For point-to-point detour
// costing it explores roughly half the nodes plain Dijkstra would.
// Results are identical to ShortestPath. The two searches run on two pooled
// flat states (see flat.go), so a query allocates nothing beyond the
// returned path.
func (g *Graph) BidirectionalShortestPath(src, dst NodeID, w WeightFunc) (Path, bool) {
	g.mustFrozen()
	if !g.validID(src) || !g.validID(dst) {
		return Path{}, false
	}
	if src == dst {
		return Path{Nodes: []NodeID{src}, Weight: 0}, true
	}

	stF := g.acquireState()
	defer stF.release()
	stB := g.acquireState()
	defer stB.release()
	stF.seed(src, 0)
	stB.seed(dst, 0)

	best := math.Inf(1)
	meet := Invalid

	// expand relaxes cur's arcs in st's direction and tests each tentative
	// distance against the opposite search for a cheaper meeting point.
	expand := func(st, other *searchState, cur NodeID, reverse bool) {
		adj := &g.fwd
		if reverse {
			adj = &g.rev
		}
		base := st.slots[cur].dist
		for _, a := range adj.row(cur) {
			nd := base + weigh(w, cur, a, reverse)
			if st.improve(a.to, cur, nd) {
				st.pq.push(a.to, nd)
			}
			if o := &other.slots[a.to]; o.seen == other.stamp {
				if total := nd + o.dist; total < best {
					best = total
					meet = a.to
				}
			}
		}
	}

	for len(stF.pq.items) > 0 || len(stB.pq.items) > 0 {
		topF, topB := math.Inf(1), math.Inf(1)
		if len(stF.pq.items) > 0 {
			topF = stF.pq.items[0].prio
		}
		if len(stB.pq.items) > 0 {
			topB = stB.pq.items[0].prio
		}
		// Standard stopping criterion: once the sum of the two frontiers'
		// minima reaches the best known meeting cost, no better path exists.
		if topF+topB >= best {
			break
		}
		if topF <= topB {
			if cur := stF.pq.pop(); stF.settle(cur.node) {
				expand(stF, stB, cur.node, false)
			}
		} else {
			if cur := stB.pq.pop(); stB.settle(cur.node) {
				expand(stB, stF, cur.node, true)
			}
		}
	}
	if meet == Invalid {
		return Path{}, false
	}

	// Stitch: src→meet from the forward tree, meet→dst from the backward.
	forward := stF.path(src, meet)
	if forward == nil {
		return Path{}, false
	}
	nodes := forward
	for at := meet; at != dst; {
		if !stB.reached(at) || stB.slots[at].prev == Invalid {
			return Path{}, false
		}
		next := stB.slots[at].prev
		nodes = append(nodes, next)
		at = next
	}
	return Path{Nodes: nodes, Weight: best}, true
}
