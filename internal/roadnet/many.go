package roadnet

// many.go is the target-aware face of the flat kernel: one-to-many
// expansions that know the node set the caller will read and stop as soon
// as every one of those nodes is settled. The derouting component prices a
// visit to a few hundred candidate chargers per query but the plain bounded
// expansion settles every node inside the travel-time ball — orders of
// magnitude more than gets read. A settled node's distance is final on
// either frontier — the heap pops in non-decreasing order, the ring drains a
// bucket only once nothing can improve a label in it (flat.go, ringFor) — so
// terminating after the last target is byte-identical *at the targets* to
// running the expansion to exhaustion; the differential and fuzz suites in
// many_test.go and ring_test.go pin that equivalence, on both frontiers,
// against a map-backed oracle.

// ExpandToMany runs a bounded forward expansion from src that terminates as
// soon as every node in targets has been settled. Dist is exact (and
// byte-identical to ExpandFrom) for src and every target reachable within
// maxWeight; values at other nodes are whatever the truncated search left
// behind and must not be read. Targets that are invalid, duplicated, or
// unreachable within the bound are tolerated — unreachable targets simply
// cost the full bounded expansion, exactly what ExpandFrom would have paid.
// An empty (or all-invalid) target set yields an empty expansion without
// searching. Callers must Release the expansion, as with ExpandFrom.
func (g *Graph) ExpandToMany(src NodeID, targets []NodeID, cw ClassWeights, maxWeight float64) Expansion {
	return g.expandMany(src, targets, cw, maxWeight, false)
}

// ExpandToManyReverse is ExpandToMany on the reverse graph: the weight of
// reaching dst from each target (the return-to-route leg), terminating once
// all targets are settled.
func (g *Graph) ExpandToManyReverse(dst NodeID, targets []NodeID, cw ClassWeights, maxWeight float64) Expansion {
	return g.expandMany(dst, targets, cw, maxWeight, true)
}

func (g *Graph) expandMany(origin NodeID, targets []NodeID, cw ClassWeights, maxWeight float64, reverse bool) Expansion {
	met.manyExpansions.Inc()
	g.mustFrozen()
	st := g.acquireState()
	if !g.validID(origin) {
		return Expansion{st: st}
	}
	want := st.markTargets(targets)
	if want == 0 {
		// Nothing will be read: the empty expansion is the cheapest answer
		// that satisfies the contract.
		met.manyEarlyTerms.Inc()
		return Expansion{st: st}
	}
	st.expand(origin, &cw, maxWeight, reverse)
	met.manySettled.Add(uint64(st.settled))
	met.manyTargetsSettled.Add(uint64(want - st.targetsLeft))
	if st.targetsLeft == 0 && st.pending > 0 {
		// All targets settled with frontier remaining, on whichever frontier
		// the search ran: the truncation saved the whole tail of the ball.
		met.manyEarlyTerms.Inc()
	}
	return Expansion{st: st}
}

// markTargets stamps the target set into the slots' targ generation and
// returns the number of distinct valid targets. Sharing the search
// stamp makes clearing free: entries from previous searches can never alias
// the current generation.
func (st *searchState) markTargets(targets []NodeID) int {
	n := 0
	for _, t := range targets {
		if t < 0 || int(t) >= len(st.slots) || st.slots[t].targ == st.stamp {
			continue
		}
		st.slots[t].targ = st.stamp
		n++
	}
	st.targetsLeft = n
	return n
}

// SupplyFrom opens an expansion nobody ran: pooled scratch under a fresh
// generation with the origin seeded as a search seeds it, for Supply to load
// with the distances a search elsewhere — the fleet gateway's, from origin
// over the same graph under the same class table — found at its targets. A
// settled target's distance does not depend on which other targets its
// search had, so Dist then reads exactly what this graph's own ExpandToMany
// from origin to any subset of the supplied nodes would have left there, and
// everything downstream of Expansion is none the wiser. ok is false, with
// nothing to release, for an origin the graph does not have.
func (g *Graph) SupplyFrom(origin NodeID) (x Expansion, ok bool) {
	g.mustFrozen()
	if !g.validID(origin) {
		return Expansion{}, false
	}
	st := g.acquireState()
	o := &st.slots[origin]
	o.dist, o.prev, o.seen, o.done, o.targ = 0, Invalid, st.stamp, st.stamp, st.stamp
	return Expansion{st: st}, true
}

// Supply makes n a target of an expansion SupplyFrom opened (Covers) and,
// when d is finite, reached at d; +Inf says the search ended without
// reaching it. A node supplied twice reads as supplied last. Whether the
// values deserve the trust is the caller's business; this only refuses what
// cannot be loaded — a node the graph does not have, a distance that is
// negative or NaN — and the caller then releases the expansion.
func (x Expansion) Supply(n NodeID, d float64) bool {
	st := x.st
	if n < 0 || int(n) >= len(st.slots) || !(d >= 0) {
		return false
	}
	s := &st.slots[n]
	s.targ = st.stamp
	if d < unreachable {
		s.dist, s.prev, s.seen, s.done = d, Invalid, st.stamp, st.stamp
	} else {
		s.seen, s.done = 0, 0
	}
	return true
}

// Covers reports whether n was a target of the many-target or supplied
// expansion x: what Dist says about n, reached or not, is then the search's
// final word and not the leftovers of a truncated one.
func (x Expansion) Covers(n NodeID) bool {
	st := x.st
	return st != nil && n >= 0 && int(n) < len(st.slots) && st.slots[n].targ == st.stamp
}
