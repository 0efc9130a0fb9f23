// Package spatial provides the in-memory spatial index EcoCharge queries —
// a point quadtree (the paper's Index-Quadtree baseline, §V.A) — and the
// brute-force scan its property tests use as the oracle.
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

// sortNeighbors orders by distance then ID, the deterministic order KNN and
// Within produce: closest first, ties broken by ID. With distinct IDs the order is total, so
// the result does not depend on the sorting algorithm.
func sortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, func(a, b Neighbor) int {
		// Distances are never NaN, so two plain comparisons order them, and
		// the IDs are looked at for equal distances only.
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// BruteForce is the trivial index: a flat slice scanned per query, the
// correctness oracle of the quadtree. Not safe for concurrent mutation;
// concurrent reads are safe once loading has finished.
type BruteForce struct {
	items []Item
}

// NewBruteForce returns an empty brute-force index.
func NewBruteForce() *BruteForce { return &BruteForce{} }

// Insert adds an item. Duplicate positions and IDs are permitted.
func (b *BruteForce) Insert(it Item) { b.items = append(b.items, it) }

// Len reports the number of stored items.
func (b *BruteForce) Len() int { return len(b.items) }

// KNN returns up to k nearest items to q, closest first, by scanning all
// items.
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

// Within returns all items within radius meters of q, closest first, by
// scanning all items.
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
