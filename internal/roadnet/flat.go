package roadnet

// flat.go is the flat shortest-path kernel behind every road search: CSR
// adjacency scanned sequentially (graph.go), one packed scratch slot per node
// recycled across searches through generation stamps (no clearing, no
// per-search maps), precompiled per-road-class weight tables, a sync.Pool of
// search-state scratch so concurrent queries reuse buffers instead of
// allocating — and two frontiers, one per kind of search. A search read
// through Dist alone (every Expansion: the gateway's one search per ranking
// and two per computed trip segment, a shard's own fallback search, brute
// force and the oracles — paper Alg. 1 lines 9-10) drains a ring of buckets
// (drain); the point-to-point search, whose paths depend on the order equal
// priorities settle in, and the expansions the ring must decline pop a
// slice-based 4-ary min-heap specialized to (NodeID, float64) pairs (run).
// Which one runs is decided in one place, ringFor, from the frozen graph and
// the class table. The expansion is the hottest loop in the repository; see
// DESIGN.md §8 for the engineering rules it follows.

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
// relaxation reads and writes one 32-byte slot (half a cache line, never two)
// instead of probing four parallel arrays. seen, done and targ are
// generation stamps: a field is live iff it equals the state's stamp. The
// many-target probe on every pop reads the slot the settle step just wrote,
// and the ring's chains run through the slots, so queueing a node dirties no
// line the relaxation had not dirtied already.
type nodeSlot struct {
	dist float64 // tentative (final once done) distance; valid iff seen
	prev NodeID  // predecessor on the shortest-path tree; valid iff seen
	seen uint32  // == stamp ⇔ the node was reached this search
	done uint32  // == stamp ⇔ the node was settled (popped) this search
	targ uint32  // == stamp ⇔ the node is a target of this search (see many.go)
	// next and back chain the nodes queued in one bucket of the ring (drain),
	// Invalid at either end; valid while the node is seen and not done. The
	// first node of a chain is known by the bucket pointing at it, and its
	// back is not kept.
	next, back NodeID
}

// searchState is the recycled scratch of one search: one slot per node plus
// the two frontiers, of which a search uses one. Bumping the stamp in begin
// invalidates every slot in O(1), so nothing is ever cleared between
// searches. States live in the graph's sync.Pool.
type searchState struct {
	g     *Graph
	slots []nodeSlot
	stamp uint32
	pq    heap4
	// ring is the bucket ring of drain, the frontier of a distance-only
	// expansion: ring[b] is the first node queued in bucket b, chained on
	// through the slots' next and back, Invalid for none. It grows to the
	// longest ring a class table has asked of this state, at most twice the
	// node count; the chains need no storage of their own.
	ring []NodeID
	// pending counts what the last search left on its frontier, whichever
	// frontier that was: queued nodes of the ring, entries of the heap (stale
	// ones included).
	pending int
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
	st.settled, st.pending = 0, 0
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

// run is the heap loop of the kernel: Dijkstra from src over the 4-ary heap,
// whose pop order among equal priorities — CSR row order decides it — is what
// makes the predecessors, and so ShortestPath's routes, reproducible. It
// serves the point-to-point search (dst valid: stop as soon as dst settles)
// and the expansions whose graph or class table rules the bucket ring out
// (ringFor). When maxWeight is finite, nodes beyond the bound are not
// recorded. reverse walks the reverse adjacency (distances *to* src). Edge
// costs come from the class table: one multiply, no call, the table validated
// once up front. Predecessors are always recorded: they share the slot the
// relaxation writes anyway.
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
	st.pending = len(st.pq.items)
}

// ringSlack is the relative amount by which a bucket is narrower than the
// cheapest arc, and ringDepth the bucket number no label may reach; ringFor
// says why.
const (
	ringSlack = 1.0 / (1 << 16)
	ringDepth = 1 << 31
)

// ringFor decides, from the frozen graph and the request's class table alone,
// whether a distance-only search may run on the bucket ring (Dial's queue),
// and how: a label d is queued in bucket ⌊d·inv⌋ of a ring of size buckets, a
// power of two. size 0 says the heap must do it. This is the one place the
// choice of frontier is made; no caller can set it.
//
// Let Δ be the cheapest and H the dearest arc cost under the table: the
// extremes over the classes the graph has of classMin·cw and classMax·cw,
// the very products the relaxation forms, so by monotone rounding no arc
// costs less than Δ or more than H as the loop computes them. Buckets are
// w = Δ·(1−ringSlack) wide. Draining bucket b, every relaxation from a label
// d in it yields fl(d+c) ≥ fl(d+Δ), which must land in a later bucket: then
// no label in the bucket being drained can still improve, so all of them are
// final and the order they pop in does not matter to any Dist. In exact
// arithmetic d+Δ lies a full bucket and ringSlack·Δ beyond d; in floating
// point the sum and the two products d·inv each err by at most a few units of
// 2⁻⁵³ relative to a quotient below ringDepth, under 2⁻²⁰ of a bucket in
// all — sixteen times less than the slack. So labels that are exact multiples
// of Δ, whose quotients would otherwise sit on a bucket edge and round either
// way, fall strictly inside a bucket (TestRingIndexStrictlyAdvances pins the
// inequality out to ringDepth, TestRingBucketBoundaries the searches). A
// relaxed label is at most H beyond the one it came from, so it lands at
// most ⌈H/w⌉ buckets ahead, one more with rounding, and a ring of ⌈H/w⌉+2
// never wraps onto the bucket being drained.
//
// The ring is declined — a property of the input, counted by
// roadnet_heap_fallback_total — when Δ is zero, negative or not a number (a
// zero-length arc, a zero multiplier, a negative one, which run rejects as
// drain does), when H is not finite, when the ring would be longer than the
// graph has nodes (finding the next occupied bucket would cost more than the
// heap saves), or when a label could reach bucket ringDepth: the deepest
// label is bounded by maxWeight and by a path of every node along dearest
// arcs.
func (g *Graph) ringFor(cw *ClassWeights, maxWeight float64) (inv float64, size int) {
	lo, hi := unreachable, 0.0
	for c, m := range cw {
		if g.classMax[c] < 0 {
			continue // the graph has no arc of this class
		}
		lo = min(lo, g.classMin[c]*m)
		hi = max(hi, g.classMax[c]*m)
	}
	if !(lo > 0 && hi < unreachable) {
		return 0, 0
	}
	inv = 1 / (lo * (1 - ringSlack))
	n := float64(len(g.nodes))
	need := math.Ceil(hi*inv) + 2
	if !(need <= n && min(maxWeight, n*hi)*inv < ringDepth) {
		return 0, 0
	}
	size = 4
	for size < int(need) {
		size *= 2
	}
	return inv, size
}

// heapOnly makes every expansion decline the ring. It exists for the
// differential tests, which hold the two frontiers to each other on the same
// inputs; nothing outside a test writes it.
var heapOnly bool

// expand runs a distance-only search from origin — every search whose caller
// gets an Expansion — on the bucket ring where ringFor allows it and on the
// heap where it does not.
func (st *searchState) expand(origin NodeID, cw *ClassWeights, maxWeight float64, reverse bool) {
	inv, size := st.g.ringFor(cw, maxWeight)
	if size == 0 || heapOnly {
		met.heapFallbacks.Inc()
		st.run(origin, Invalid, cw, maxWeight, reverse)
		return
	}
	if len(st.ring) < size {
		st.ring = make([]NodeID, size)
	}
	st.drain(origin, cw, maxWeight, reverse, inv, size)
}

// drain is the ring loop of the kernel: Dijkstra from src over a circular
// array of buckets, for the searches that are read through Dist alone. It
// relaxes as run relaxes, honours maxWeight and the target set as run does —
// stopping mid-bucket the moment the last target settles — and leaves the
// labels run leaves, because a label is final when its bucket drains
// (ringFor) and final labels do not depend on the order nodes settle in. What
// it does not keep is that order: nodes of one bucket pop last-queued first,
// so predecessors among equal-cost paths and the number of nodes a truncated
// search settles can differ from the heap's by the tail of the last bucket.
// A node is queued once: a better label moves it to its new bucket (or leaves
// it where it is, when that is the same one) instead of queueing it again, so
// every pop is a settle and there are no stale entries to skip.
func (st *searchState) drain(src NodeID, cw *ClassWeights, maxWeight float64, reverse bool, inv float64, size int) {
	adj := &st.g.fwd
	if reverse {
		adj = &st.g.rev
	}
	cw.mustNonNegative()
	ring := st.ring[:size]
	for i := range ring {
		ring[i] = Invalid
	}
	mask := uint32(size - 1)

	s := &st.slots[src]
	s.dist, s.prev, s.seen, s.next = 0, Invalid, st.stamp, Invalid
	ring[0] = src
	pending := 1
	for b := uint32(0); pending > 0; {
		cur := ring[b&mask]
		if cur == Invalid {
			b++
			continue
		}
		s := &st.slots[cur]
		ring[b&mask] = s.next
		pending--
		s.done = st.stamp
		st.settled++
		if st.targetsLeft > 0 && s.targ == st.stamp {
			if st.targetsLeft--; st.targetsLeft == 0 {
				break
			}
		}
		base := s.dist
		for _, a := range adj.row(cur) {
			nd := base + a.length*cw[a.class%numRoadClasses]
			if nd > maxWeight {
				continue
			}
			t := &st.slots[a.to]
			queued, was := t.seen == st.stamp, t.dist
			if !st.improve(a.to, cur, nd) {
				continue
			}
			to := uint32(nd*inv) & mask
			if queued {
				// Only a queued node improves: a settled one holds its final
				// label. Take it out of the bucket its old label put it in.
				from := uint32(was*inv) & mask
				if from == to {
					continue
				}
				if ring[from] == a.to {
					ring[from] = t.next
				} else {
					st.slots[t.back].next = t.next
				}
				if t.next != Invalid {
					st.slots[t.next].back = t.back
				}
				pending--
			}
			head := ring[to]
			t.next = head
			if head != Invalid {
				st.slots[head].back = a.to
			}
			ring[to] = a.to
			pending++
		}
	}
	st.pending = pending
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
		st.expand(origin, &cw, maxWeight, reverse)
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
