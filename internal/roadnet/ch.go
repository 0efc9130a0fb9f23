package roadnet

import (
	"math"
	"sort"
)

// ContractionHierarchy is a preprocessing structure for fast repeated
// point-to-point queries under a fixed weight function: nodes are
// contracted in importance order, shortcut edges preserve shortest-path
// distances, and queries run a bidirectional upward search that touches a
// tiny fraction of the graph. EcoCharge's derouting component prices many
// point pairs against the same network; a production deployment
// preprocesses once per traffic epoch and serves queries from the
// hierarchy.
//
// Build with BuildCH (expensive, run offline); Query is safe for
// concurrent use afterwards.
type ContractionHierarchy struct {
	g     *Graph
	w     WeightFunc
	order []int32 // contraction rank per node; higher = more important

	// Upward adjacency: edges (original or shortcut) to higher-ranked nodes.
	up   [][]chEdge
	down [][]chEdge // reverse: for the backward search
}

type chEdge struct {
	to     NodeID
	weight float64
}

// BuildCH preprocesses the graph under the weight function. The node
// ordering uses the edge-difference heuristic with lazy updates — standard
// practice, adequate for the graph sizes of this repository.
func BuildCH(g *Graph, w WeightFunc) *ContractionHierarchy {
	g.mustFrozen()
	n := g.NumNodes()
	ch := &ContractionHierarchy{g: g, w: w, order: make([]int32, n)}

	// Working adjacency with shortcuts accumulated during contraction.
	type dynEdge struct {
		to     NodeID
		weight float64
	}
	fwd := make([][]dynEdge, n)
	bwd := make([][]dynEdge, n)
	for _, e := range g.Edges() {
		wt := w(e)
		if wt < 0 {
			panic("roadnet: negative edge weight")
		}
		fwd[e.From] = append(fwd[e.From], dynEdge{to: e.To, weight: wt})
		bwd[e.To] = append(bwd[e.To], dynEdge{to: e.From, weight: wt})
	}
	contracted := make([]bool, n)

	// witnessSearch reports whether a path from src to dst avoiding `skip`
	// exists with weight ≤ limit (bounded Dijkstra on the remaining graph).
	witnessSearch := func(src, dst NodeID, skip NodeID, limit float64) bool {
		if src == dst {
			return true
		}
		// Offline preprocessing: a tiny bounded search over the shrinking
		// dynamic graph, so the map is fine here — only the query path is hot.
		//ecolint:ignore hotalloc offline preprocessing, not on the query path
		dist := map[NodeID]float64{src: 0}
		var pq heap4
		pq.push(src, 0)
		settled := 0
		for len(pq.items) > 0 && settled < 80 { // bounded effort: misses cost only extra shortcuts
			cur := pq.pop()
			if cur.prio > dist[cur.node] {
				continue
			}
			if cur.node == dst {
				return true
			}
			if cur.prio > limit {
				return false
			}
			settled++
			for _, e := range fwd[cur.node] {
				if e.to == skip || contracted[e.to] {
					continue
				}
				nd := cur.prio + e.weight
				if nd > limit {
					continue
				}
				if old, ok := dist[e.to]; !ok || nd < old {
					dist[e.to] = nd
					pq.push(e.to, nd)
				}
			}
		}
		return false
	}

	// edgeDifference simulates contracting v: shortcuts needed − edges removed.
	simulate := func(v NodeID, insert bool) int {
		shortcuts := 0
		for _, in := range bwd[v] {
			if contracted[in.to] {
				continue
			}
			for _, out := range fwd[v] {
				if contracted[out.to] || in.to == out.to {
					continue
				}
				via := in.weight + out.weight
				if !witnessSearch(in.to, out.to, v, via) {
					shortcuts++
					if insert {
						fwd[in.to] = append(fwd[in.to], dynEdge{to: out.to, weight: via})
						bwd[out.to] = append(bwd[out.to], dynEdge{to: in.to, weight: via})
					}
				}
			}
		}
		degree := 0
		for _, e := range fwd[v] {
			if !contracted[e.to] {
				degree++
			}
		}
		for _, e := range bwd[v] {
			if !contracted[e.to] {
				degree++
			}
		}
		return shortcuts - degree
	}

	// Initial priority queue by edge difference, lazily re-evaluated.
	type rankItem struct {
		node NodeID
		prio int
	}
	items := make([]rankItem, n)
	for i := range items {
		items[i] = rankItem{node: NodeID(i), prio: simulate(NodeID(i), false)}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].prio < items[j].prio })
	queue := items

	rank := int32(0)
	for len(queue) > 0 {
		// Lazy update: re-evaluate the head; if it is no longer best,
		// re-insert and try again.
		head := queue[0]
		queue = queue[1:]
		if contracted[head.node] {
			continue
		}
		cur := simulate(head.node, false)
		if len(queue) > 0 && cur > queue[0].prio {
			// Re-insert in order.
			idx := sort.Search(len(queue), func(i int) bool { return queue[i].prio >= cur })
			queue = append(queue, rankItem{})
			copy(queue[idx+1:], queue[idx:])
			queue[idx] = rankItem{node: head.node, prio: cur}
			continue
		}
		simulate(head.node, true) // insert shortcuts for real
		contracted[head.node] = true
		ch.order[head.node] = rank
		rank++
	}

	// Assemble upward/downward adjacency from the final dynamic graph.
	ch.up = make([][]chEdge, n)
	ch.down = make([][]chEdge, n)
	for v := 0; v < n; v++ {
		for _, e := range fwd[v] {
			if ch.order[e.to] > ch.order[v] {
				ch.up[v] = append(ch.up[v], chEdge{to: e.to, weight: e.weight})
			}
		}
		for _, e := range bwd[v] {
			if ch.order[e.to] > ch.order[v] {
				ch.down[v] = append(ch.down[v], chEdge{to: e.to, weight: e.weight})
			}
		}
	}
	// Deduplicate parallel edges keeping the cheapest (shortcut insertion
	// can add dominated parallels).
	dedup := func(edges []chEdge) []chEdge {
		if len(edges) < 2 {
			return edges
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].to != edges[j].to {
				return edges[i].to < edges[j].to
			}
			return edges[i].weight < edges[j].weight
		})
		out := edges[:1]
		for _, e := range edges[1:] {
			if e.to != out[len(out)-1].to {
				out = append(out, e)
			}
		}
		return out
	}
	for v := 0; v < n; v++ {
		ch.up[v] = dedup(ch.up[v])
		ch.down[v] = dedup(ch.down[v])
	}
	return ch
}

// Query returns the shortest-path weight from src to dst, or +Inf when
// unreachable. It runs the standard CH bidirectional upward search.
func (ch *ContractionHierarchy) Query(src, dst NodeID) float64 {
	n := len(ch.order)
	if int(src) < 0 || int(src) >= n || int(dst) < 0 || int(dst) >= n {
		return math.Inf(1)
	}
	if src == dst {
		return 0
	}
	stF := ch.g.acquireState()
	defer stF.release()
	stB := ch.g.acquireState()
	defer stB.release()
	best := math.Inf(1)

	search := func(st *searchState, start NodeID, adj [][]chEdge, other *searchState) {
		st.seed(start, 0)
		for len(st.pq.items) > 0 {
			cur := st.pq.pop()
			if cur.prio > st.slots[cur.node].dist {
				continue
			}
			if cur.prio >= best {
				break // nothing cheaper can meet
			}
			if other != nil && other.reached(cur.node) {
				if total := cur.prio + other.slots[cur.node].dist; total < best {
					best = total
				}
			}
			for _, e := range adj[cur.node] {
				nd := cur.prio + e.weight
				if st.improve(e.to, cur.node, nd) {
					st.pq.push(e.to, nd)
				}
			}
		}
	}
	// Forward upward search, then backward; the meeting check needs both
	// searches, so run forward fully first (graphs here are small), then
	// backward with meeting tests against the forward state.
	search(stF, src, ch.up, nil)
	search(stB, dst, ch.down, stF)
	return best
}
