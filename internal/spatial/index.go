// Package spatial provides the in-memory spatial indexes EcoCharge queries:
// a point quadtree (the paper's Index-Quadtree baseline, §V.A), a uniform
// grid with iterative-deepening ring search (the main-memory structure of
// the CkNN literature surveyed in §VI.B), and a brute-force reference used
// both as the optimal baseline and as the oracle in property tests.
package spatial

import (
	"cmp"
	"slices"

	"ecocharge/internal/geo"
)

// Item is an indexed point with an opaque identifier (charger ID, node ID…).
type Item struct {
	P  geo.Point
	ID int64
}

// Neighbor is a query result: an item and its distance from the query point.
type Neighbor struct {
	Item
	Dist float64 // meters
}

// Index is the common contract of all spatial indexes in this package.
// Implementations are not safe for concurrent mutation; concurrent reads
// are safe once loading has finished, matching how the framework uses them
// (load once, query continuously).
type Index interface {
	// Insert adds an item. Duplicate positions and IDs are permitted.
	Insert(Item)
	// KNN returns up to k nearest items to q, closest first. Ties are
	// broken by ID for determinism.
	KNN(q geo.Point, k int) []Neighbor
	// Within returns all items within radius meters of q, closest first.
	Within(q geo.Point, radius float64) []Neighbor
	// Len reports the number of stored items.
	Len() int
}

// sortNeighbors orders by distance then ID, the deterministic order every
// Index implementation must produce. With distinct IDs the order is total, so
// the result does not depend on the sorting algorithm.
func sortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, func(a, b Neighbor) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
	})
}

// BruteForce is the trivial Index: a flat slice scanned per query. It is
// the correctness oracle and the "Brute-Force Method" baseline of the
// evaluation.
type BruteForce struct {
	items []Item
}

// NewBruteForce returns an empty brute-force index.
func NewBruteForce() *BruteForce { return &BruteForce{} }

// Insert implements Index.
func (b *BruteForce) Insert(it Item) { b.items = append(b.items, it) }

// Len implements Index.
func (b *BruteForce) Len() int { return len(b.items) }

// Items exposes the raw storage for full scans (the brute-force ranking
// method iterates every charger regardless of distance).
func (b *BruteForce) Items() []Item { return b.items }

// KNN implements Index by scanning all items.
func (b *BruteForce) KNN(q geo.Point, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	ns := make([]Neighbor, 0, len(b.items))
	for _, it := range b.items {
		ns = append(ns, Neighbor{Item: it, Dist: geo.Distance(q, it.P)})
	}
	sortNeighbors(ns)
	if len(ns) > k {
		ns = ns[:k]
	}
	return ns
}

// Within implements Index by scanning all items.
func (b *BruteForce) Within(q geo.Point, radius float64) []Neighbor {
	var ns []Neighbor
	for _, it := range b.items {
		if d := geo.Distance(q, it.P); d <= radius {
			ns = append(ns, Neighbor{Item: it, Dist: d})
		}
	}
	sortNeighbors(ns)
	return ns
}
