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
