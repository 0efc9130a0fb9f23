package spatial

import (
	"container/heap"
	"sync"

	"ecocharge/internal/geo"
)

// Quadtree is a point quadtree over a fixed bounding region, the
// "Index-Quadtree Method" of the paper's evaluation: it partitions 2-D
// space so that candidate retrieval drops from O(n) scans to O(log n)
// descents. Leaves split once they exceed their capacity; points exactly on
// split lines go to the south/west child deterministically. Not safe for
// concurrent mutation; concurrent reads are safe once loading has finished,
// matching how the framework uses it (load once, query continuously).
type Quadtree struct {
	root     *qnode
	bounds   geo.BBox
	capacity int
	size     int
}

const defaultLeafCapacity = 16

type qnode struct {
	bounds   geo.BBox
	items    []Item // leaf payload; nil after split
	children *[4]qnode
}

// NewQuadtree returns a quadtree covering bounds. Items inserted outside
// bounds are clamped into it (the generators always stay inside, but the
// index must not corrupt itself on stray GPS points). leafCapacity ≤ 0
// selects the default of 16.
func NewQuadtree(bounds geo.BBox, leafCapacity int) *Quadtree {
	if leafCapacity <= 0 {
		leafCapacity = defaultLeafCapacity
	}
	return &Quadtree{
		root:     &qnode{bounds: bounds},
		bounds:   bounds,
		capacity: leafCapacity,
	}
}

// Bounds returns the region the tree covers.
func (t *Quadtree) Bounds() geo.BBox { return t.bounds }

// Len reports the number of stored items.
func (t *Quadtree) Len() int { return t.size }

// Insert adds an item. Duplicate positions and IDs are permitted.
func (t *Quadtree) Insert(it Item) {
	if !t.bounds.Contains(it.P) {
		it.P = clampInto(it.P, t.bounds)
	}
	t.insert(t.root, it, 0)
	t.size++
}

// maxDepth bounds subdivision so that many co-located points cannot recurse
// forever; beyond it leaves simply grow.
const maxDepth = 24

func (t *Quadtree) insert(n *qnode, it Item, depth int) {
	for {
		if n.children == nil {
			n.items = append(n.items, it)
			if len(n.items) > t.capacity && depth < maxDepth {
				t.split(n)
				// Fall through to redistribute: items were moved already.
			}
			return
		}
		n = &n.children[childIndex(n.bounds, it.P)]
		depth++
	}
}

func (t *Quadtree) split(n *qnode) {
	c := n.bounds.Center()
	var ch [4]qnode
	// Quadrants: 0=SW 1=SE 2=NW 3=NE.
	ch[0].bounds = geo.BBox{Min: n.bounds.Min, Max: c}
	ch[1].bounds = geo.BBox{Min: geo.Point{Lat: n.bounds.Min.Lat, Lon: c.Lon}, Max: geo.Point{Lat: c.Lat, Lon: n.bounds.Max.Lon}}
	ch[2].bounds = geo.BBox{Min: geo.Point{Lat: c.Lat, Lon: n.bounds.Min.Lon}, Max: geo.Point{Lat: n.bounds.Max.Lat, Lon: c.Lon}}
	ch[3].bounds = geo.BBox{Min: c, Max: n.bounds.Max}
	n.children = &ch
	items := n.items
	n.items = nil
	for _, it := range items {
		child := &n.children[childIndex(n.bounds, it.P)]
		child.items = append(child.items, it)
	}
}

func childIndex(b geo.BBox, p geo.Point) int {
	c := b.Center()
	idx := 0
	if p.Lon >= c.Lon {
		idx |= 1
	}
	if p.Lat >= c.Lat {
		idx |= 2
	}
	return idx
}

func clampInto(p geo.Point, b geo.BBox) geo.Point {
	if p.Lat < b.Min.Lat {
		p.Lat = b.Min.Lat
	} else if p.Lat > b.Max.Lat {
		p.Lat = b.Max.Lat
	}
	if p.Lon < b.Min.Lon {
		p.Lon = b.Min.Lon
	} else if p.Lon > b.Max.Lon {
		p.Lon = b.Max.Lon
	}
	return p
}

// qentry is a priority-queue element for the best-first kNN search: either
// a subtree (lower-bounded by box distance) or a concrete item.
type qentry struct {
	dist float64
	node *qnode // nil for concrete items
	item Item
}

type qpq []qentry

func (q qpq) Len() int            { return len(q) }
func (q qpq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q qpq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *qpq) Push(x interface{}) { *q = append(*q, x.(qentry)) }
func (q *qpq) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// KNN returns up to k nearest items to q, closest first, ties broken by ID
// for determinism. The search is best-first: subtrees are expanded in
// order of their minimum possible distance, so the first k concrete items
// popped are exactly the k nearest.
func (t *Quadtree) KNN(q geo.Point, k int) []Neighbor {
	if k <= 0 || t.size == 0 {
		return nil
	}
	pq := qpq{{dist: t.root.bounds.DistanceTo(q), node: t.root}}
	heap.Init(&pq)
	out := make([]Neighbor, 0, k)
	for pq.Len() > 0 && len(out) < k {
		e := heap.Pop(&pq).(qentry)
		if e.node == nil {
			out = append(out, Neighbor{Item: e.item, Dist: e.dist})
			continue
		}
		n := e.node
		if n.children != nil {
			for i := range n.children {
				c := &n.children[i]
				heap.Push(&pq, qentry{dist: c.bounds.DistanceTo(q), node: c})
			}
			continue
		}
		for _, it := range n.items {
			heap.Push(&pq, qentry{dist: geo.Distance(q, it.P), item: it})
		}
	}
	stabilizeTies(out)
	return out
}

// Nearest returns the item closest to q, the lowest ID among equally close
// ones — what KNN(q, 1) answers once ties are settled the way sortNeighbors
// settles them — and false on an empty tree. It is the snap of a GPS point to
// its road node, run per query point and per trip waypoint, so it allocates
// nothing: a depth-first descent, nearest child first, over a frontier that
// lives on the stack. A subtree is entered only while its box is no farther
// than the best item found, so the descent visits what the best-first search
// would and a few boxes more.
func (t *Quadtree) Nearest(q geo.Point) (Neighbor, bool) {
	if t.size == 0 {
		return Neighbor{}, false
	}
	type frame struct {
		node *qnode
		dist float64
	}
	// An inner node is replaced by its four children and the tree is at most
	// maxDepth splits deep, so the frontier never holds more than three
	// siblings per level and the four of the last.
	var stack [3*maxDepth + 4]frame
	stack[0] = frame{t.root, t.root.bounds.DistanceTo(q)}
	top := 1
	best, found := Neighbor{}, false
	for top > 0 {
		top--
		f := stack[top]
		if found && f.dist > best.Dist {
			continue
		}
		if f.node.children == nil {
			for _, it := range f.node.items {
				d := geo.Distance(q, it.P)
				//ecolint:ignore floateq ties are exact duplicates of the same distance value
				if !found || d < best.Dist || (d == best.Dist && it.ID < best.ID) {
					best, found = Neighbor{Item: it, Dist: d}, true
				}
			}
			continue
		}
		// Farthest child first onto the stack, so the nearest is popped next.
		base := top
		for i := range f.node.children {
			c := frame{&f.node.children[i], f.node.children[i].bounds.DistanceTo(q)}
			j := top
			for ; j > base && stack[j-1].dist < c.dist; j-- {
				stack[j] = stack[j-1]
			}
			stack[j] = c
			top++
		}
	}
	return best, found
}

// stabilizeTies re-orders equal-distance runs by ID so results are
// deterministic regardless of heap pop order.
func stabilizeTies(ns []Neighbor) {
	i := 0
	for i < len(ns) {
		j := i + 1
		//ecolint:ignore floateq ties are exact duplicates of the same distance value
		for j < len(ns) && ns[j].Dist == ns[i].Dist {
			j++
		}
		if j-i > 1 {
			sub := ns[i:j]
			sortNeighbors(sub)
		}
		i = j
	}
}

// Within returns all items within radius meters of q, closest first, ties by
// ID: AppendItemsWithin, then a distance per item and the sort. Callers that
// need the set and not the order (a ranking's candidates, a search's targets)
// call the walk and pay for neither.
func (t *Quadtree) Within(q geo.Point, radius float64) []Neighbor {
	scratch := itemBufs.Get().(*[]Item)
	defer itemBufs.Put(scratch)
	*scratch = t.AppendItemsWithin((*scratch)[:0], q, radius)
	if len(*scratch) == 0 {
		return nil
	}
	ns := make([]Neighbor, len(*scratch))
	for i, it := range *scratch {
		ns[i] = Neighbor{Item: it, Dist: geo.Distance(q, it.P)}
	}
	sortNeighbors(ns)
	return ns
}

// itemBufs recycles the walk's output between Within calls, so that an answer
// costs the one allocation it is returned in.
var itemBufs = sync.Pool{New: func() any { return new([]Item) }}

// AppendItemsWithin appends to dst the items within radius meters of q — the
// set BruteForce.Within returns — and returns the grown slice. The order is
// the tree's: fixed once the tree is loaded, the same on every call, and
// nothing a caller should read meaning into. It is the one radius walk of the
// package. A subtree whose box lies wholly beyond the radius is skipped and
// one whose box lies wholly inside is taken without a distance computed
// (geo.BBox.DistanceTo and MaxDistanceTo decide, soundly); only the items of
// leaves the circle cuts through are measured. A caller that keeps dst from
// query to query retrieves without allocating once dst has held its largest
// answer.
func (t *Quadtree) AppendItemsWithin(dst []Item, q geo.Point, radius float64) []Item {
	return t.root.appendWithin(dst, q, radius)
}

func (n *qnode) appendWithin(dst []Item, q geo.Point, radius float64) []Item {
	switch {
	case n.bounds.DistanceTo(q) > radius:
		return dst
	case n.bounds.MaxDistanceTo(q) <= radius:
		return n.appendAll(dst)
	case n.children != nil:
		for i := range n.children {
			dst = n.children[i].appendWithin(dst, q, radius)
		}
		return dst
	}
	for _, it := range n.items {
		if geo.Distance(q, it.P) <= radius {
			dst = append(dst, it)
		}
	}
	return dst
}

func (n *qnode) appendAll(dst []Item) []Item {
	if n.children == nil {
		return append(dst, n.items...)
	}
	for i := range n.children {
		dst = n.children[i].appendAll(dst)
	}
	return dst
}

// Depth returns the height of the tree, exposed for diagnostics and tests.
func (t *Quadtree) Depth() int {
	var walk func(n *qnode) int
	walk = func(n *qnode) int {
		if n.children == nil {
			return 1
		}
		max := 0
		for i := range n.children {
			if d := walk(&n.children[i]); d > max {
				max = d
			}
		}
		return max + 1
	}
	return walk(t.root)
}
