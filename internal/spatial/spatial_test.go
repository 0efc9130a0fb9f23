package spatial

import (
	"math/rand"
	"testing"

	"ecocharge/internal/geo"
)

var testBounds = geo.BBox{
	Min: geo.Point{Lat: 53.0, Lon: 8.0},
	Max: geo.Point{Lat: 53.4, Lon: 8.6},
}

func randomItems(r *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			ID: int64(i),
			P: geo.Point{
				Lat: testBounds.Min.Lat + r.Float64()*(testBounds.Max.Lat-testBounds.Min.Lat),
				Lon: testBounds.Min.Lon + r.Float64()*(testBounds.Max.Lon-testBounds.Min.Lon),
			},
		}
	}
	return items
}

func buildAll(items []Item) (bf *BruteForce, qt *Quadtree) {
	bf = NewBruteForce()
	qt = NewQuadtree(testBounds, 8)
	for _, it := range items {
		bf.Insert(it)
		qt.Insert(it)
	}
	return bf, qt
}

func neighborsEqual(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

// sameIDs reports whether the items are the neighbours, as multisets of IDs.
func sameIDs(items []Item, ns []Neighbor) bool {
	if len(items) != len(ns) {
		return false
	}
	count := make(map[int64]int, len(ns))
	for _, n := range ns {
		count[n.ID]++
	}
	for _, it := range items {
		count[it.ID]--
		if count[it.ID] < 0 {
			return false
		}
	}
	return true
}

func TestIndexesAgreeWithBruteForceKNN(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	items := randomItems(r, 500)
	bf, qt := buildAll(items)

	for trial := 0; trial < 100; trial++ {
		q := geo.Point{
			Lat: testBounds.Min.Lat + r.Float64()*0.4,
			Lon: testBounds.Min.Lon + r.Float64()*0.6,
		}
		for _, k := range []int{1, 3, 10, 50} {
			want := bf.KNN(q, k)
			if got := qt.KNN(q, k); !neighborsEqual(got, want) {
				t.Fatalf("trial %d k=%d: quadtree KNN mismatch\n got=%v\nwant=%v", trial, k, got, want)
			}
		}
	}
}

func TestIndexesAgreeWithBruteForceWithin(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	items := randomItems(r, 400)
	bf, qt := buildAll(items)
	var scratch []Item

	for trial := 0; trial < 50; trial++ {
		q := geo.Point{
			Lat: testBounds.Min.Lat + r.Float64()*0.4,
			Lon: testBounds.Min.Lon + r.Float64()*0.6,
		}
		for _, radius := range []float64{500, 3000, 15000} {
			want := bf.Within(q, radius)
			if got := qt.Within(q, radius); !neighborsEqual(got, want) {
				t.Fatalf("trial %d r=%.0f: quadtree Within mismatch: got %d want %d", trial, radius, len(got), len(want))
			}
			// The walk underneath, behind what the caller already holds: the
			// same set, in the tree's order.
			scratch = qt.AppendItemsWithin(append(scratch[:0], Item{ID: -1}), q, radius)
			if scratch[0].ID != -1 || !sameIDs(scratch[1:], want) {
				t.Fatalf("trial %d r=%.0f: AppendItemsWithin mismatch: got %d want %d", trial, radius, len(scratch)-1, len(want))
			}
		}
	}
	q := testBounds.Center()
	if allocs := testing.AllocsPerRun(100, func() { scratch = qt.AppendItemsWithin(scratch[:0], q, 15000) }); allocs != 0 || len(scratch) == 0 {
		t.Fatalf("AppendItemsWithin allocates %v times per call on warm scratch (%d items)", allocs, len(scratch))
	}
}

func TestKNNMoreThanAvailable(t *testing.T) {
	items := randomItems(rand.New(rand.NewSource(1)), 5)
	_, qt := buildAll(items)
	q := testBounds.Center()
	if got := qt.KNN(q, 10); len(got) != 5 {
		t.Errorf("quadtree KNN k>n returned %d items, want 5", len(got))
	}
}

func TestKNNEmptyAndZeroK(t *testing.T) {
	qt := NewQuadtree(testBounds, 0)
	q := testBounds.Center()
	for name, got := range map[string][]Neighbor{"quadtree": qt.KNN(q, 3), "bruteforce": NewBruteForce().KNN(q, 3)} {
		if len(got) != 0 {
			t.Errorf("%s: empty index KNN = %v, want none", name, got)
		}
	}
	qt.Insert(Item{P: q, ID: 1})
	if got := qt.KNN(q, 0); got != nil {
		t.Errorf("k=0 KNN = %v, want nil", got)
	}
}

func TestQuadtreeDuplicatePointsSplitSafely(t *testing.T) {
	qt := NewQuadtree(testBounds, 2)
	p := testBounds.Center()
	for i := 0; i < 100; i++ {
		qt.Insert(Item{P: p, ID: int64(i)})
	}
	if qt.Len() != 100 {
		t.Fatalf("Len = %d, want 100", qt.Len())
	}
	got := qt.KNN(p, 100)
	if len(got) != 100 {
		t.Fatalf("KNN on 100 co-located points returned %d", len(got))
	}
	// Ties must come back in ID order.
	for i, n := range got {
		if n.ID != int64(i) {
			t.Fatalf("tie order broken at %d: ID %d", i, n.ID)
		}
	}
	if d := qt.Depth(); d > maxDepth+1 {
		t.Errorf("depth %d exceeded maxDepth bound", d)
	}
}

func TestQuadtreeClampsOutOfBounds(t *testing.T) {
	qt := NewQuadtree(testBounds, 4)
	stray := geo.Point{Lat: 60.0, Lon: 20.0} // far outside
	qt.Insert(Item{P: stray, ID: 99})
	got := qt.KNN(testBounds.Max, 1)
	if len(got) != 1 || got[0].ID != 99 {
		t.Fatalf("stray point not retrievable: %v", got)
	}
	if !testBounds.Contains(got[0].P) {
		t.Errorf("stray point not clamped into bounds: %v", got[0].P)
	}
}

func TestWithinRadiusBoundaryInclusive(t *testing.T) {
	bf := NewBruteForce()
	center := testBounds.Center()
	target := geo.Destination(center, 90, 1000)
	bf.Insert(Item{P: target, ID: 1})
	d := geo.Distance(center, target)
	if got := bf.Within(center, d); len(got) != 1 {
		t.Errorf("point exactly at radius excluded")
	}
	if got := bf.Within(center, d-1); len(got) != 0 {
		t.Errorf("point beyond radius included")
	}
}

func TestWithinNegativeRadius(t *testing.T) {
	_, qt := buildAll(randomItems(rand.New(rand.NewSource(3)), 50))
	q := testBounds.Center()
	if got := qt.Within(q, -1); len(got) != 0 {
		t.Errorf("quadtree negative radius returned %d items", len(got))
	}
}

func TestClusteredDistribution(t *testing.T) {
	// Heavy clustering stresses quadtree splitting.
	r := rand.New(rand.NewSource(11))
	var items []Item
	id := int64(0)
	for c := 0; c < 5; c++ {
		cLat := testBounds.Min.Lat + r.Float64()*0.4
		cLon := testBounds.Min.Lon + r.Float64()*0.6
		for i := 0; i < 200; i++ {
			items = append(items, Item{
				ID: id,
				P:  geo.Point{Lat: cLat + r.NormFloat64()*0.002, Lon: cLon + r.NormFloat64()*0.002},
			})
			id++
		}
	}
	// Clamp any wandering normal samples back into bounds for the oracle.
	for i := range items {
		items[i].P = clampInto(items[i].P, testBounds)
	}
	bf, qt := buildAll(items)
	for trial := 0; trial < 30; trial++ {
		q := geo.Point{
			Lat: testBounds.Min.Lat + r.Float64()*0.4,
			Lon: testBounds.Min.Lon + r.Float64()*0.6,
		}
		want := bf.KNN(q, 20)
		if got := qt.KNN(q, 20); !neighborsEqual(got, want) {
			t.Fatalf("clustered quadtree mismatch at trial %d", trial)
		}
	}
}

func BenchmarkQuadtreeKNN(b *testing.B) {
	items := randomItems(rand.New(rand.NewSource(5)), 10000)
	qt := NewQuadtree(testBounds, 0)
	for _, it := range items {
		qt.Insert(it)
	}
	q := testBounds.Center()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qt.KNN(q, 10)
	}
}

func BenchmarkBruteForceKNN(b *testing.B) {
	items := randomItems(rand.New(rand.NewSource(5)), 10000)
	bf := NewBruteForce()
	for _, it := range items {
		bf.Insert(it)
	}
	q := testBounds.Center()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bf.KNN(q, 10)
	}
}

// TestEqualDistancesComeBackInIDOrder pins the second key of sortNeighbors:
// items at the same distance from the query — co-located ones, and pairs
// mirrored across it — are returned in ID order by every index, from Within
// and from KNN, whatever order they were inserted in.
func TestEqualDistancesComeBackInIDOrder(t *testing.T) {
	q := testBounds.Center()
	var items []Item
	for i := 0; i < 40; i++ {
		d := 0.001 * float64(1+i/8) // five rings of eight
		p := geo.Point{Lat: q.Lat + d, Lon: q.Lon}
		if i%2 == 1 {
			p.Lat = q.Lat - d // the mirror image: bit-equal distance
		}
		items = append(items, Item{ID: int64(1000 - i), P: p})
	}
	rand.New(rand.NewSource(3)).Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	bf, qt := buildAll(items)

	for what, got := range map[string][]Neighbor{
		"brute Within":    bf.Within(q, 2000),
		"brute KNN":       bf.KNN(q, len(items)),
		"quadtree Within": qt.Within(q, 2000),
		"quadtree KNN":    qt.KNN(q, len(items)),
	} {
		if len(got) != len(items) {
			t.Fatalf("%s returned %d of %d items", what, len(got), len(items))
		}
		ties := 0
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			//ecolint:ignore floateq the test is about bit-equal distances
			if a.Dist > b.Dist || (a.Dist == b.Dist && a.ID >= b.ID) {
				t.Fatalf("%s: (%v, %d) before (%v, %d)", what, a.Dist, a.ID, b.Dist, b.ID)
			}
			//ecolint:ignore floateq the test is about bit-equal distances
			if a.Dist == b.Dist {
				ties++
			}
		}
		if ties < len(items)/2 {
			t.Fatalf("%s: only %d equal-distance neighbours; the test does not reach the ID key", what, ties)
		}
	}
}

// TestNearestAgreesWithBruteForce holds Quadtree.Nearest to the oracle's
// first neighbour — the closest item, the lowest ID among equally close ones
// — on uniform and clustered items, with co-located duplicates of other IDs
// among them, from query points inside the region, outside it and on the
// items themselves; and pins that it allocates nothing.
func TestNearestAgreesWithBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	items := randomItems(r, 2000)
	for i := 0; i < 300; i++ { // a clump deep enough to split many times
		items = append(items, Item{ID: int64(len(items)), P: geo.Point{
			Lat: 53.21 + r.NormFloat64()*0.0005, Lon: 8.33 + r.NormFloat64()*0.0005,
		}})
	}
	for i := 0; i < 100; i++ { // twins: same place, a lower and a higher ID
		items = append(items, Item{ID: int64(len(items)), P: items[r.Intn(2000)].P})
		items = append(items, Item{ID: -int64(i) - 1, P: items[r.Intn(2000)].P})
	}
	r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	bf, qt := buildAll(items)

	if _, ok := NewQuadtree(testBounds, 0).Nearest(testBounds.Center()); ok {
		t.Fatal("an empty tree has a nearest item")
	}
	query := func(trial int) geo.Point {
		switch trial % 3 {
		case 0: // inside
			return geo.Point{Lat: 53.0 + r.Float64()*0.4, Lon: 8.0 + r.Float64()*0.6}
		case 1: // anywhere around, mostly outside
			return geo.Point{Lat: 52.8 + r.Float64()*0.8, Lon: 7.7 + r.Float64()*1.2}
		}
		return items[r.Intn(len(items))].P // distance zero, often tied
	}
	for trial := 0; trial < 1500; trial++ {
		q := query(trial)
		want := bf.KNN(q, 1)[0]
		got, ok := qt.Nearest(q)
		//ecolint:ignore floateq the same distance computed twice
		if !ok || got.ID != want.ID || got.Dist != want.Dist {
			t.Fatalf("trial %d, query %v: Nearest = (%d, %v, %v), the oracle says (%d, %v)", trial, q, got.ID, got.Dist, ok, want.ID, want.Dist)
		}
	}
	q := query(0)
	if allocs := testing.AllocsPerRun(200, func() { qt.Nearest(q) }); allocs != 0 {
		t.Fatalf("Nearest allocates %v times per call", allocs)
	}
}
