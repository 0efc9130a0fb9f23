package roadnet

// flat.go is the flat shortest-path kernel behind every network expansion:
// CSR adjacency scanned sequentially (graph.go), one packed scratch slot per
// node recycled across searches through generation stamps (no clearing, no
// per-search maps), a slice-based 4-ary min-heap specialized to (NodeID,
// float64) pairs, precompiled per-road-class weight tables, and a sync.Pool
// of search-state scratch so concurrent queries reuse buffers instead of
// allocating. The derouting component runs
// one to four bounded expansions per segment per trip per user (paper
// Alg. 1 lines 9-10), which makes this the hottest loop in the repository;
// see DESIGN.md §8 for the engineering rules it follows.

import (
	"math"
	"sync"
)

// NumRoadClasses is the number of distinct road classes. ClassWeights
// tables carry exactly one multiplier per class.
const NumRoadClasses = int(numRoadClasses)

// ClassWeights is a precompiled per-road-class cost table: the traversal
// cost of an edge is edge.Length * table[edge.Class], the only way a search
// prices an edge (see DESIGN.md §8).
type ClassWeights [numRoadClasses]float64

// CostOf prices one edge under the table.
func (cw *ClassWeights) CostOf(e Edge) float64 {
	return e.Length * cw[e.Class%numRoadClasses]
}

// DistanceWeight is the plain length metric: x·1.0 = x, so a path's weight
// under it is the sum of its edge lengths in meters.
var DistanceWeight = ClassWeights{1, 1, 1, 1}

// TimeClassWeights is the table form of free-flow travel time in seconds.
func TimeClassWeights() ClassWeights {
	var cw ClassWeights
	for c := RoadClass(0); c < numRoadClasses; c++ {
		cw[c] = 1 / c.FreeFlowSpeed()
	}
	return cw
}

// heapItem is one pending (node, priority) pair of the search frontier.
type heapItem struct {
	node NodeID
	prio float64
}

// heap4 is a slice-backed 4-ary min-heap on heapItem. Compared to
// container/heap it avoids the interface boxing of Push/Pop (one alloc per
// operation) and halves the tree depth — a good fit for the
// short-priority-range frontiers of road-network Dijkstra. Both sifts move
// a hole instead of swapping: the item in flight stays in registers and a
// level costs one 16-byte store, not two. pop picks the smallest of four
// children without branching (see there). Neither changes which
// comparisons decide: the arrangement after every operation, and with it
// the pop order among equal priorities, is that of the textbook swapping
// scan. The backing slice is owned by a searchState and recycled.
type heap4 struct {
	items []heapItem
}

func (h *heap4) reset() { h.items = h.items[:0] }

func (h *heap4) push(node NodeID, prio float64) {
	h.items = append(h.items, heapItem{})
	items := h.items
	i := len(items) - 1
	for i > 0 {
		p := (i - 1) / 4
		if key(items[p].prio) <= key(prio) {
			break
		}
		items[i] = items[p]
		i = p
	}
	items[i] = heapItem{node: node, prio: prio}
}

func (h *heap4) pop() heapItem {
	items := h.items
	n := len(items) - 1
	top, x := items[0], items[n]
	items = items[:n]
	h.items = items
	xk := key(x.prio)
	i := 0
	for {
		first := 4*i + 1
		if first+4 > n {
			break
		}
		// Full fan-out. The walk down the heap is one long dependency chain
		// — which child is smallest decides which four priorities to load
		// next — so a level must cost as few cycles as possible: the four
		// keys are loaded once, compared as integers, and both the winning
		// key and its index are selected by arithmetic instead of by a
		// branch the predictor gets wrong half the time or a second load
		// through the chosen index. Two rounds (0 v 1 and 2 v 3, then the
		// winners) with strict < keep the plain scan's choice of the lowest
		// index among equal priorities.
		c := items[first : first+4 : first+4]
		k0, k1, k2, k3 := key(c[0].prio), key(c[1].prio), key(c[2].prio), key(c[3].prio)
		lo, hi := b2i(k1 < k0), 2+b2i(k3 < k2)
		kl, kh := min(k0, k1), min(k2, k3)
		lo += (hi - lo) & -b2i(kh < kl)
		if xk <= min(kl, kh) {
			items[i] = x
			return top
		}
		items[i] = c[lo&3]
		i = first + lo
	}
	// Ragged last group: fewer than four children, possibly none.
	if first := 4*i + 1; first < n {
		min := first
		for c := first + 1; c < n; c++ {
			if key(items[c].prio) < key(items[min].prio) {
				min = c
			}
		}
		if key(items[min].prio) < xk {
			items[i] = items[min]
			i = min
		}
	}
	if n > 0 {
		items[i] = x
	}
	return top
}

// key maps a priority to an integer with the same order. Priorities are
// path weights: never negative, never NaN, and for such floats the IEEE-754
// bit pattern read as an unsigned integer orders exactly as the float does.
// Integer compares are what lets pop select without branching.
func key(prio float64) uint64 { return math.Float64bits(prio) }

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// nodeSlot is everything a search keeps about one node, packed so that a
// relaxation reads and writes one 24-byte slot (one cache line, two when it
// straddles) instead of probing four parallel arrays. seen, done and targ
// are generation stamps: a field is live iff it equals the state's stamp.
// The many-target probe on every pop reads the slot the settle step just
// wrote.
type nodeSlot struct {
	dist float64 // tentative (final once done) distance; valid iff seen
	prev NodeID  // predecessor on the shortest-path tree; valid iff seen
	seen uint32  // == stamp ⇔ the node was reached this search
	done uint32  // == stamp ⇔ the node was settled (popped) this search
	targ uint32  // == stamp ⇔ the node is a target of this search (see many.go)
}

// searchState is the recycled scratch of one search: one slot per node plus
// the frontier heap. Bumping the stamp in begin invalidates every slot in
// O(1), so nothing is ever cleared between searches. States live in the
// graph's sync.Pool.
type searchState struct {
	g     *Graph
	slots []nodeSlot
	stamp uint32
	pq    heap4
	// targetsLeft counts the marked-but-unsettled targets of a many-target
	// search; 0 disables early termination (the plain expansion path).
	targetsLeft int
	// settled counts the nodes popped by the last run, reported to the obs
	// layer by the many-target wrappers.
	settled int
	inUse   bool
}

func newSearchState(g *Graph) *searchState {
	return &searchState{
		g:     g,
		slots: make([]nodeSlot, len(g.nodes)),
		pq:    heap4{items: make([]heapItem, 0, 256)},
	}
}

// acquireState checks a search state out of the graph's pool and starts a
// fresh generation. Callers must release it exactly once.
func (g *Graph) acquireState() *searchState {
	met.poolAcquires.Inc()
	st := g.pool.Get().(*searchState)
	st.begin()
	return st
}

// begin opens a new search generation. On the (once per 2^32 searches)
// stamp wrap-around every slot's three stamps are cleared together, so
// stale entries from four billion searches ago cannot alias the new stamp.
func (st *searchState) begin() {
	st.inUse = true
	st.targetsLeft = 0 // a prior search may have ended with unsettled targets
	st.settled = 0
	st.stamp++
	if st.stamp == 0 {
		for i := range st.slots {
			s := &st.slots[i]
			s.seen, s.done, s.targ = 0, 0, 0
		}
		st.stamp = 1
	}
	st.pq.reset()
}

// release returns the state to the pool. Releasing twice is a no-op, so a
// deferred release composes with early returns.
func (st *searchState) release() {
	if !st.inUse {
		return
	}
	st.inUse = false
	met.poolReleases.Inc()
	st.g.pool.Put(st)
}

// seed initializes the search origin.
func (st *searchState) seed(n NodeID) {
	s := &st.slots[n]
	s.dist, s.prev, s.seen = 0, Invalid, st.stamp
	st.pq.push(n, 0)
}

// reached reports whether the last search settled or touched n.
func (st *searchState) reached(n NodeID) bool {
	return n >= 0 && int(n) < len(st.slots) && st.slots[n].seen == st.stamp
}

// improve offers node to the tentative distance nd reached via from. It
// reports whether that beat what the search knew; the caller then queues
// the node under the priority of its search.
func (st *searchState) improve(to, from NodeID, nd float64) bool {
	s := &st.slots[to]
	if s.seen == st.stamp && nd >= s.dist {
		return false
	}
	s.dist, s.prev, s.seen = nd, from, st.stamp
	return true
}

// settle marks a popped node done and reports whether this was its first
// pop; later pops of the same node are stale frontier entries.
func (st *searchState) settle(n NodeID) bool {
	s := &st.slots[n]
	if s.done == st.stamp {
		return false
	}
	s.done = st.stamp
	return true
}

// mustNonNegative rejects a class table with a negative multiplier. Edge
// lengths are non-negative by construction (AddEdge), so checking the four
// table entries once per search is the whole negative-weight check of the
// kernel.
func (cw *ClassWeights) mustNonNegative() {
	for _, m := range cw {
		if m < 0 {
			panic("roadnet: negative edge weight")
		}
	}
}

// run executes the Dijkstra kernel from src, the one loop in the repository
// that pops a road-search frontier. When dst is valid the search stops as
// soon as dst settles; when maxWeight is finite, nodes beyond the bound are
// not recorded. reverse walks the reverse adjacency (distances *to* src).
// Edge costs come from the class table: one multiply, no call, the table
// validated once up front. Predecessors are always recorded: they share the
// slot the relaxation writes anyway.
func (st *searchState) run(src, dst NodeID, cw *ClassWeights, maxWeight float64, reverse bool) {
	adj := &st.g.fwd
	if reverse {
		adj = &st.g.rev
	}
	cw.mustNonNegative()
	st.seed(src)
	for len(st.pq.items) > 0 {
		cur := st.pq.pop()
		if !st.settle(cur.node) {
			continue
		}
		st.settled++
		if cur.node == dst {
			break
		}
		s := &st.slots[cur.node]
		if st.targetsLeft > 0 && s.targ == st.stamp {
			// A target just settled: its distance is final (Dijkstra pops in
			// non-decreasing order), so once the last one settles nothing the
			// remaining frontier could discover changes any target value —
			// stopping here is byte-identical at the targets to running the
			// expansion to exhaustion.
			if st.targetsLeft--; st.targetsLeft == 0 {
				break
			}
		}
		base := s.dist
		for _, a := range adj.row(cur.node) {
			nd := base + a.length*cw[a.class%numRoadClasses]
			if nd > maxWeight {
				continue
			}
			if st.improve(a.to, cur.node, nd) {
				st.pq.push(a.to, nd)
			}
		}
	}
}

// path reconstructs src→dst from the predecessor array. It returns nil when
// the chain is broken (only possible if dst was never reached).
func (st *searchState) path(src, dst NodeID) []NodeID {
	if src == dst {
		return []NodeID{src}
	}
	var rev []NodeID
	for at := dst; ; {
		rev = append(rev, at)
		if at == src {
			break
		}
		if !st.reached(at) || st.slots[at].prev == Invalid {
			return nil
		}
		at = st.slots[at].prev
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Expansion is the zero-copy result of one bounded network expansion: a
// read-only view over a pooled search state's dense arrays. Dist is safe
// for concurrent readers. Callers must Release the expansion when done —
// typically with defer — after which Dist must not be called; the zero
// Expansion is valid and empty.
type Expansion struct {
	st *searchState
}

// Dist returns the expansion weight of n and whether n was reached.
func (x Expansion) Dist(n NodeID) (float64, bool) {
	st := x.st
	if st == nil || n < 0 || int(n) >= len(st.slots) {
		return 0, false
	}
	s := &st.slots[n]
	if s.seen != st.stamp {
		return 0, false
	}
	return s.dist, true
}

// Release returns the expansion's scratch buffers to the graph's pool.
// Releasing twice (or releasing the zero Expansion) is a no-op.
func (x Expansion) Release() {
	if x.st != nil {
		x.st.release()
	}
}

// ExpandFrom runs a bounded expansion from src under the class table,
// pricing every node reachable within maxWeight. This is the
// network-expansion primitive of the derouting component (Alg. 1 lines
// 9-10) in its allocation-free form: scratch comes from the graph's pool
// and goes back on Release.
func (g *Graph) ExpandFrom(src NodeID, cw ClassWeights, maxWeight float64) Expansion {
	return g.expand(src, cw, maxWeight, false)
}

// ExpandTo is ExpandFrom on the reverse graph: the weight of reaching dst
// from every node within maxWeight (the return-to-route leg).
func (g *Graph) ExpandTo(dst NodeID, cw ClassWeights, maxWeight float64) Expansion {
	return g.expand(dst, cw, maxWeight, true)
}

func (g *Graph) expand(origin NodeID, cw ClassWeights, maxWeight float64, reverse bool) Expansion {
	met.expansions.Inc()
	g.mustFrozen()
	st := g.acquireState()
	if g.validID(origin) {
		st.run(origin, Invalid, &cw, maxWeight, reverse)
	}
	return Expansion{st: st}
}

// initSearchPool wires the graph's search-state pool; called by Freeze.
func (g *Graph) initSearchPool() {
	g.pool = &sync.Pool{New: func() any {
		met.poolNews.Inc()
		return newSearchState(g)
	}}
}

// unreachable is the canonical "no path" weight.
var unreachable = math.Inf(1)
