package roadnet

import "math"

// chbucket.go is the bucket-CH many-to-many primitive: index a fixed target
// set once by running one upward search per target and dropping (target,
// distance) entries into per-node buckets, then answer each anchor with a
// single upward sweep that probes the buckets it meets. The per-anchor cost
// is one CH search plus bucket probes — independent of the target count's
// contribution to ball volume — which is what makes repeated charger-search
// queries against a fixed candidate set tractable (ROADMAP item 2). The
// weight function is the hierarchy's: a production deployment builds one CH
// per traffic epoch and reuses the buckets for every anchor in the epoch.
//
// Distances are byte-identical to ContractionHierarchy.Query: both sides
// settle the same upward search spaces under the same weights, and the
// meeting sum dF(v)+dB(v) adds the same two operands (IEEE-754 addition is
// commutative), so the minimum over meeting nodes is the same float. The
// differential suite in chbucket_test.go pins this per target.

// CHBuckets hold a target set indexed over a ContractionHierarchy for
// repeated one-to-many queries. Build once with TargetBuckets (targets as
// destinations, query with DistancesFrom) or SourceBuckets (targets as
// sources, query with DistancesTo); queries are safe for concurrent use.
type CHBuckets struct {
	ch      *ContractionHierarchy
	n       int  // number of targets (slots in the output slice)
	sources bool // built by SourceBuckets: only DistancesTo is valid
	buckets [][]bucketEntry
}

type bucketEntry struct {
	target int32   // index into the target slice the buckets were built from
	weight float64 // settled target-side upward distance at this node
}

// TargetBuckets indexes targets as *destinations*: DistancesFrom(src)
// returns the shortest-path weight src→targets[i] for every i. Invalid
// target IDs stay unreachable (+Inf); duplicates each get their own slot.
func (ch *ContractionHierarchy) TargetBuckets(targets []NodeID) *CHBuckets {
	return ch.buildBuckets(targets, false)
}

// SourceBuckets indexes targets as *sources*: DistancesTo(dst) returns the
// shortest-path weight targets[i]→dst for every i.
func (ch *ContractionHierarchy) SourceBuckets(targets []NodeID) *CHBuckets {
	return ch.buildBuckets(targets, true)
}

func (ch *ContractionHierarchy) buildBuckets(targets []NodeID, sources bool) *CHBuckets {
	b := &CHBuckets{
		ch:      ch,
		n:       len(targets),
		sources: sources,
		buckets: make([][]bucketEntry, len(ch.order)),
	}
	// Targets as destinations meet the anchor's forward (up) sweep with
	// their backward (down) search space, and vice versa.
	adj := ch.down
	if sources {
		adj = ch.up
	}
	for i, t := range targets {
		if int(t) < 0 || int(t) >= len(ch.order) {
			continue
		}
		b.scatter(int32(i), t, adj)
	}
	return b
}

// scatter runs one upward search from target t and appends its settled
// distances to the buckets along the way.
func (b *CHBuckets) scatter(idx int32, t NodeID, adj [][]chEdge) {
	st := b.ch.g.acquireState()
	defer st.release()
	st.seed(t, 0)
	for len(st.pq.items) > 0 {
		cur := st.pq.pop()
		if cur.prio > st.slots[cur.node].dist {
			continue
		}
		b.buckets[cur.node] = append(b.buckets[cur.node], bucketEntry{target: idx, weight: cur.prio})
		for _, e := range adj[cur.node] {
			nd := cur.prio + e.weight
			if st.improve(e.to, cur.node, nd) {
				st.pq.push(e.to, nd)
			}
		}
	}
}

// DistancesFrom answers src→targets[i] for every target of a TargetBuckets
// build with one upward sweep. The result is written into out when it has
// capacity (so steady-state callers allocate nothing) and returned; +Inf
// marks unreachable pairs.
func (b *CHBuckets) DistancesFrom(src NodeID, out []float64) []float64 {
	if b.sources {
		panic("roadnet: DistancesFrom on buckets built with SourceBuckets")
	}
	return b.sweep(src, b.ch.up, out)
}

// DistancesTo answers targets[i]→dst for every target of a SourceBuckets
// build with one downward sweep.
func (b *CHBuckets) DistancesTo(dst NodeID, out []float64) []float64 {
	if !b.sources {
		panic("roadnet: DistancesTo on buckets built with TargetBuckets")
	}
	return b.sweep(dst, b.ch.down, out)
}

func (b *CHBuckets) sweep(origin NodeID, adj [][]chEdge, out []float64) []float64 {
	if cap(out) < b.n {
		out = make([]float64, b.n)
	}
	out = out[:b.n]
	for i := range out {
		out[i] = math.Inf(1)
	}
	if int(origin) < 0 || int(origin) >= len(b.ch.order) {
		return out
	}
	st := b.ch.g.acquireState()
	defer st.release()
	st.seed(origin, 0)
	for len(st.pq.items) > 0 {
		cur := st.pq.pop()
		if cur.prio > st.slots[cur.node].dist {
			continue
		}
		for _, e := range b.buckets[cur.node] {
			if d := cur.prio + e.weight; d < out[e.target] {
				out[e.target] = d
			}
		}
		for _, e := range adj[cur.node] {
			nd := cur.prio + e.weight
			if st.improve(e.to, cur.node, nd) {
				st.pq.push(e.to, nd)
			}
		}
	}
	return out
}
