package roadnet

// ShortestPath runs the flat kernel (flat.go) from src until dst settles,
// under the class table. It returns the path and true, or a zero path and
// false when dst is unreachable. A negative multiplier is a caller bug and
// panics.
func (g *Graph) ShortestPath(src, dst NodeID, cw ClassWeights) (Path, bool) {
	g.mustFrozen()
	if !g.validID(src) || !g.validID(dst) {
		return Path{}, false
	}
	st := g.acquireState()
	defer st.release()
	st.run(src, dst, &cw, unreachable, false)
	if !st.reached(dst) {
		return Path{}, false
	}
	return Path{Nodes: st.path(src, dst), Weight: st.slots[dst].dist}, true
}

// PathWeight prices a node sequence as ShortestPath prices the path it
// returns: from 0, step by step in order, each step at its cheapest arc under
// the class table. A label is its predecessor's plus the cheapest arc between
// them, so for a path ShortestPath returned the two weights are equal bit for
// bit. It reports false for an empty sequence, a node the graph does not have
// or a step that is not an arc; it runs no search.
func (g *Graph) PathWeight(nodes []NodeID, cw ClassWeights) (float64, bool) {
	g.mustFrozen()
	if len(nodes) == 0 || !g.validID(nodes[0]) {
		return 0, false
	}
	var w float64
	for i := 1; i < len(nodes); i++ {
		from, to := nodes[i-1], nodes[i]
		if !g.validID(to) {
			return 0, false
		}
		step, arc := 0.0, false
		for _, a := range g.fwd.row(from) {
			if a.to != to {
				continue
			}
			if c := a.length * cw[a.class%numRoadClasses]; !arc || c < step {
				step, arc = c, true
			}
		}
		if !arc {
			return 0, false
		}
		w += step
	}
	return w, true
}
