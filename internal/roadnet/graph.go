// Package roadnet models the directed weighted road network G = (V, E) of
// the paper's system model (§II.A): nodes carry spatial coordinates, edges
// carry a travel weight, and shortest paths between locations provide the
// derouting cost D. The package also ships the synthetic network generators
// that stand in for the Oldenburg / California road graphs (see DESIGN.md,
// substitution table).
package roadnet

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"ecocharge/internal/geo"
	"ecocharge/internal/spatial"
)

// NodeID identifies a node within one Graph. IDs are dense: 0..NumNodes-1.
type NodeID int32

// Invalid is the sentinel for "no node".
const Invalid NodeID = -1

// RoadClass categorizes edges; the traffic model assigns different
// free-flow speeds and congestion profiles per class.
type RoadClass uint8

// Road classes, from local streets up to motorways.
const (
	ClassLocal RoadClass = iota
	ClassArterial
	ClassHighway
	ClassMotorway
	numRoadClasses
)

// String implements fmt.Stringer.
func (c RoadClass) String() string {
	switch c {
	case ClassLocal:
		return "local"
	case ClassArterial:
		return "arterial"
	case ClassHighway:
		return "highway"
	case ClassMotorway:
		return "motorway"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// FreeFlowSpeed returns the class's nominal speed in m/s.
func (c RoadClass) FreeFlowSpeed() float64 {
	switch c {
	case ClassLocal:
		return 30.0 / 3.6
	case ClassArterial:
		return 50.0 / 3.6
	case ClassHighway:
		return 80.0 / 3.6
	case ClassMotorway:
		return 110.0 / 3.6
	}
	return 50.0 / 3.6
}

// Node is a road-network vertex.
type Node struct {
	ID NodeID
	P  geo.Point
}

// Edge is a directed road segment.
type Edge struct {
	From, To NodeID
	Length   float64 // meters
	Class    RoadClass
}

// arc is one adjacency entry of a frozen graph: the node at the far end
// (the head in the forward CSR, the tail in the reverse one) and the two
// edge attributes a search prices. 16 bytes, so a node's arcs share a cache
// line or two and the relaxation loop never leaves the array.
type arc struct {
	to     NodeID
	class  RoadClass
	length float64
}

// csr is one direction of the adjacency in compressed sparse row form: the
// arcs of node n are arcs[off[n]:off[n+1]], in the order AddEdge saw them.
// That order is part of the kernel's contract — it decides which of two
// equal-cost frontier entries settles first and hence which predecessor a
// path keeps — so building the rows must stay a stable counting sort.
type csr struct {
	off  []int32
	arcs []arc
}

// row returns the arcs of node n.
func (c *csr) row(n NodeID) []arc { return c.arcs[c.off[n]:c.off[n+1]] }

// buildCSR groups the edges by tail (forward form) or head (reverse form),
// keeping insertion order within a row. order[p] is the insertion index of
// the edge stored at arcs[p].
func buildCSR(numNodes int, edges []Edge, reverse bool) (c csr, order []int32) {
	c = csr{off: make([]int32, numNodes+1), arcs: make([]arc, len(edges))}
	order = make([]int32, len(edges))
	for _, e := range edges {
		if reverse {
			c.off[e.To+1]++
		} else {
			c.off[e.From+1]++
		}
	}
	for n := 0; n < numNodes; n++ {
		c.off[n+1] += c.off[n]
	}
	next := append([]int32(nil), c.off[:numNodes]...)
	for i, e := range edges {
		row, far := e.From, e.To
		if reverse {
			row, far = e.To, e.From
		}
		c.arcs[next[row]] = arc{to: far, class: e.Class, length: e.Length}
		order[next[row]] = int32(i)
		next[row]++
	}
	return c, order
}

// symmetricCSR reports whether every node has the same arcs going out as
// coming in: equal multisets of (far end, class, bit-identical length) in its
// forward and its reverse row. Then each arc u→v has a twin v→u of the same
// cost under any class table, so a search over rev visits what the search
// over fwd from the same node visits and sums the same floats in the same
// order along every path — the two label sets are equal bit for bit
// (DESIGN.md §8). A self-loop sits in both rows of its node and is its own
// twin; a graph without arcs is symmetric.
func symmetricCSR(fwd, rev *csr) bool {
	byArc := func(a, b arc) int {
		return cmp.Or(
			cmp.Compare(a.to, b.to),
			cmp.Compare(a.class, b.class),
			cmp.Compare(math.Float64bits(a.length), math.Float64bits(b.length)),
		)
	}
	var out, in []arc // sorted copies of one node's two rows, reused
	for n := 0; n+1 < len(fwd.off); n++ {
		out = append(out[:0], fwd.row(NodeID(n))...)
		in = append(in[:0], rev.row(NodeID(n))...)
		if len(out) != len(in) {
			return false
		}
		slices.SortFunc(out, byArc)
		slices.SortFunc(in, byArc)
		for i := range out {
			if byArc(out[i], in[i]) != 0 {
				return false
			}
		}
	}
	return true
}

// Graph is a directed weighted road network. Build it with AddNode/AddEdge,
// then call Freeze before querying; Freeze constructs the adjacency arrays
// and the nearest-node index. The zero value is an empty, unfrozen graph.
type Graph struct {
	nodes []Node
	edges []Edge // the builder's list; Freeze folds it into the CSRs and drops it
	fwd   csr    // out-arcs per node; every search walks this or rev
	rev   csr    // in-arcs per node, for return-trip costs
	// fwdOrder[p] is the insertion index of the edge at fwd.arcs[p]: all a
	// frozen graph keeps of the edge list, enough for Edges to rebuild it.
	fwdOrder  []int32
	symmetric bool // fwd and rev hold the same arcs per node; set by Freeze
	index     *spatial.Quadtree
	pool      *sync.Pool // recycled searchState scratch (see flat.go); set by Freeze
	frozen    bool

	// classMin[c] and classMax[c] are the shortest and the longest arc length
	// of road class c (folded as a search folds it, class%numRoadClasses), set
	// by Freeze; classMax[c] stays -1 for a class without arcs. With a
	// request's class table they bound every arc cost of a search from below
	// and above, which is what sizes the bucket ring (flat.go, ringFor).
	classMin, classMax [numRoadClasses]float64
}

// NewGraph returns an empty graph with capacity hints.
func NewGraph(nodeHint, edgeHint int) *Graph {
	return &Graph{
		nodes: make([]Node, 0, nodeHint),
		edges: make([]Edge, 0, edgeHint),
	}
}

// AddNode appends a node at p and returns its ID.
func (g *Graph) AddNode(p geo.Point) NodeID {
	if g.frozen {
		panic("roadnet: AddNode on frozen graph")
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, P: p})
	return id
}

// AddEdge appends a directed edge. Length ≤ 0 is replaced by the geodesic
// distance between endpoints. It panics on unknown node IDs: a malformed
// graph is a programming error, not a runtime condition.
func (g *Graph) AddEdge(from, to NodeID, length float64, class RoadClass) {
	if g.frozen {
		panic("roadnet: AddEdge on frozen graph")
	}
	if !g.validID(from) || !g.validID(to) {
		panic(fmt.Sprintf("roadnet: AddEdge with invalid node %d -> %d (have %d nodes)", from, to, len(g.nodes)))
	}
	if length <= 0 {
		length = geo.Distance(g.nodes[from].P, g.nodes[to].P)
	}
	g.edges = append(g.edges, Edge{From: from, To: to, Length: length, Class: class})
}

// AddBidirectional adds the edge in both directions. Both arcs get the same
// length value — the second takes the first's, derived or given — so a graph
// built only of these is Symmetric.
func (g *Graph) AddBidirectional(a, b NodeID, length float64, class RoadClass) {
	g.AddEdge(a, b, length, class)
	g.AddEdge(b, a, g.edges[len(g.edges)-1].Length, class)
}

func (g *Graph) validID(id NodeID) bool { return id >= 0 && int(id) < len(g.nodes) }

// Freeze finalizes the graph: adjacency lists and the spatial index become
// available, and further mutation panics. Freeze is idempotent.
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	g.fwd, g.fwdOrder = buildCSR(len(g.nodes), g.edges, false)
	g.rev, _ = buildCSR(len(g.nodes), g.edges, true)
	g.symmetric = symmetricCSR(&g.fwd, &g.rev)
	g.edges = nil
	for c := range g.classMin {
		g.classMin[c], g.classMax[c] = math.Inf(1), -1
	}
	for _, a := range g.fwd.arcs {
		c := a.class % numRoadClasses
		g.classMin[c] = min(g.classMin[c], a.length)
		g.classMax[c] = max(g.classMax[c], a.length)
	}
	if len(g.nodes) > 0 {
		pts := make([]geo.Point, len(g.nodes))
		for i, n := range g.nodes {
			pts[i] = n.P
		}
		g.index = spatial.NewQuadtree(geo.NewBBox(pts...), 0)
		for _, n := range g.nodes {
			g.index.Insert(spatial.Item{P: n.P, ID: int64(n.ID)})
		}
	}
	g.initSearchPool()
	g.frozen = true
}

// Symmetric reports whether the frozen graph is undirected in the strict
// sense a search can rely on: every arc has a twin in the opposite direction
// with the same class and the same length bit for bit (parallel arcs counted
// with multiplicity). On such a graph the distances *to* a node equal the
// distances *from* it under any class table, exactly, so a caller that needs
// both from one node may run one expansion. It is false before Freeze.
func (g *Graph) Symmetric() bool { return g.symmetric }

// NumNodes reports |V|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges reports |E|.
func (g *Graph) NumEdges() int {
	if g.frozen {
		return len(g.fwd.arcs)
	}
	return len(g.edges)
}

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node {
	if !g.validID(id) {
		panic(fmt.Sprintf("roadnet: Node(%d) out of range", id))
	}
	return g.nodes[id]
}

// Edges returns the edges in the order AddEdge saw them. On a frozen graph
// the list is rebuilt from the forward CSR on every call (the tail of an arc
// is the row it sits in), so this is for exports and preprocessing, not for
// query paths; on an unfrozen graph it is the builder's own slice, which
// callers must not mutate.
func (g *Graph) Edges() []Edge {
	if !g.frozen {
		return g.edges
	}
	out := make([]Edge, len(g.fwd.arcs))
	for n := range g.nodes {
		for p := g.fwd.off[n]; p < g.fwd.off[n+1]; p++ {
			a := g.fwd.arcs[p]
			out[g.fwdOrder[p]] = Edge{From: NodeID(n), To: a.to, Length: a.length, Class: a.class}
		}
	}
	return out
}

// OutEdges calls fn for each edge leaving id.
func (g *Graph) OutEdges(id NodeID, fn func(Edge)) {
	g.mustFrozen()
	for _, a := range g.fwd.row(id) {
		fn(Edge{From: id, To: a.to, Length: a.length, Class: a.class})
	}
}

// InEdges calls fn for each edge entering id.
func (g *Graph) InEdges(id NodeID, fn func(Edge)) {
	g.mustFrozen()
	for _, a := range g.rev.row(id) {
		fn(Edge{From: a.to, To: id, Length: a.length, Class: a.class})
	}
}

func (g *Graph) mustFrozen() {
	if !g.frozen {
		panic("roadnet: graph not frozen; call Freeze before querying")
	}
}

// Bounds returns the bounding box of all nodes. It panics on an empty graph.
func (g *Graph) Bounds() geo.BBox {
	if len(g.nodes) == 0 {
		panic("roadnet: Bounds of empty graph")
	}
	g.mustFrozen()
	return g.index.Bounds()
}

// NearestNode snaps p to the closest node (map-matching in the simplest
// form the paper needs: GPS points become query nodes). It returns Invalid
// on an empty graph.
func (g *Graph) NearestNode(p geo.Point) NodeID {
	g.mustFrozen()
	if g.index == nil {
		return Invalid
	}
	n, ok := g.index.Nearest(p)
	if !ok {
		return Invalid
	}
	return NodeID(n.ID)
}

// Path is a node sequence through the graph together with its total weight.
type Path struct {
	Nodes  []NodeID
	Weight float64 // sum of edge weights under the metric used to compute it
}

// TimeWeight is the free-flow travel time of one edge in seconds.
func TimeWeight(e Edge) float64 { return e.Length / e.Class.FreeFlowSpeed() }
