package spatial

// The radius walk against the brute-force oracle, where it is easiest to get
// wrong: radii that end on an item to the bit, items on the lines the tree
// splits along, and boxes whose nearest point is not where clamping says.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ecocharge/internal/geo"
)

// checkWithin holds both radius queries of the tree to the oracle: the walk
// answers the oracle's set, and Within the oracle's answer — same items, same
// distances, closest first with ties by ID.
func checkWithin(t *testing.T, bf *BruteForce, qt *Quadtree, q geo.Point, radius float64) {
	t.Helper()
	want := bf.Within(q, radius)
	if got := qt.AppendItemsWithin(nil, q, radius); !sameIDs(got, want) {
		t.Fatalf("walk from %v within %v m: %d items, the oracle has %d", q, radius, len(got), len(want))
	}
	got := qt.Within(q, radius)
	if !slices.Equal(got, want) {
		t.Fatalf("Within from %v within %v m: %d neighbours, the oracle has %d (or an order differs)", q, radius, len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		//ecolint:ignore floateq ties are bit-equal distances
		if a.Dist > b.Dist || (a.Dist == b.Dist && a.ID > b.ID) {
			t.Fatalf("Within from %v: (%v m, %d) before (%v m, %d)", q, a.Dist, a.ID, b.Dist, b.ID)
		}
	}
}

// TestWithinPrunesBySoundBounds is the case geo.BBox.DistanceTo got wrong: an
// item of the box lat [52.9, 53.1] × lon [8.5, 9.0] nearer to (53.0, 8.0)
// than the box's clamped point, and a radius between the two distances. A
// tree that skips the box by the clamped distance loses the item.
func TestWithinPrunesBySoundBounds(t *testing.T) {
	box := geo.BBox{Min: geo.Point{Lat: 52.9, Lon: 8.5}, Max: geo.Point{Lat: 53.1, Lon: 9.0}}
	q, item := geo.Point{Lat: 53.0, Lon: 8.0}, Item{P: geo.Point{Lat: 53.00105, Lon: 8.5}, ID: 7}
	near, clamped := geo.Distance(q, item.P), geo.Distance(q, geo.Point{Lat: 53.0, Lon: 8.5})
	if !(near < clamped) {
		t.Fatalf("the case is gone: item at %v m, clamped point at %v m", near, clamped)
	}
	bf, qt := NewBruteForce(), NewQuadtree(box, 0)
	bf.Insert(item)
	qt.Insert(item)
	radius := (near + clamped) / 2
	checkWithin(t, bf, qt, q, radius)
	if got := qt.Within(q, radius); len(got) != 1 {
		t.Fatalf("Within(%v m) = %v, want the item at %v m", radius, got, near)
	}
	if got := qt.KNN(q, 1); len(got) != 1 || got[0].ID != item.ID {
		t.Fatalf("KNN = %v", got)
	}
}

// TestItemsWithinAdversarialRadii runs the walk with the radii that sit on
// its decisions: the distance of an item to the bit and the floats on either
// side of it — for random items and for items on the tree's split lines, the
// corners of its leaves — radius 0 on top of an item, and radii from just
// short of the whole tree to past it, where subtrees are taken whole.
func TestItemsWithinAdversarialRadii(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	items := randomItems(r, 600)
	h, w := testBounds.Max.Lat-testBounds.Min.Lat, testBounds.Max.Lon-testBounds.Min.Lon
	for i := 0; i <= 16; i++ { // the 17 × 17 lattice the first four splits cut along
		for j := 0; j <= 16; j++ {
			items = append(items, Item{ID: int64(len(items)), P: geo.Point{
				Lat: testBounds.Min.Lat + h*float64(i)/16, Lon: testBounds.Min.Lon + w*float64(j)/16,
			}})
		}
	}
	r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	bf, qt := buildAll(items)

	for trial := 0; trial < 300; trial++ {
		q := geo.Point{Lat: 52.9 + r.Float64()*0.6, Lon: 7.9 + r.Float64()*0.8} // inside and around
		switch trial % 3 {
		case 1:
			q = items[r.Intn(len(items))].P
		case 2: // on a split line, off the lattice
			q = geo.Point{Lat: testBounds.Min.Lat + h*float64(r.Intn(17))/16, Lon: testBounds.Min.Lon + w*r.Float64()}
		}
		for n := 0; n < 4; n++ {
			d := geo.Distance(q, items[r.Intn(len(items))].P)
			for _, radius := range []float64{d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1))} {
				checkWithin(t, bf, qt, q, radius)
			}
		}
		checkWithin(t, bf, qt, q, 0)
		all := testBounds.MaxDistanceTo(q)
		for _, radius := range []float64{0.5 * all, 0.99 * all, all, 2 * all, math.Inf(1)} {
			checkWithin(t, bf, qt, q, radius)
		}
	}
	if got := qt.AppendItemsWithin(nil, testBounds.Center(), math.Inf(1)); len(got) != len(items) {
		t.Fatalf("an infinite radius finds %d of %d items", len(got), len(items))
	}
	if got := qt.AppendItemsWithin(nil, items[0].P, 0); len(got) == 0 {
		t.Fatal("radius 0 on top of an item does not find it")
	}
}

// FuzzItemsWithin: for any box, any points in it, any query point and any
// radius, the walk answers the set the brute-force scan answers, and Within
// the same items closest first with ties by ID. Points are fractions of the
// box in sixteen bits a coordinate, so the fuzzer reaches the box's edges and
// corners, co-located items and the tree's split lines without luck.
func FuzzItemsWithin(f *testing.F) {
	// The regression case of TestWithinPrunesBySoundBounds: a point on the
	// west edge a little north of the query's latitude, a radius between its
	// distance and the clamped point's.
	f.Add([]byte{0x81, 0x58, 0, 0}, 52.9, 8.5, 0.2, 0.5, 53.0, 8.0, 33459.3)
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x80, 0, 0x80, 0, 0x80, 0, 0x80, 0}, 53.0, 8.0, 0.4, 0.6, 53.2, 8.3, 0.0)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, -0.5, -0.5, 1.0, 1.0, 10.0, 0.25, 1.2e6)
	f.Fuzz(func(t *testing.T, data []byte, minLat, minLon, spanLat, spanLon, qLat, qLon, radius float64) {
		box := geo.BBox{Min: geo.Point{Lat: minLat, Lon: minLon}, Max: geo.Point{Lat: minLat + spanLat, Lon: minLon + spanLon}}
		q := geo.Point{Lat: qLat, Lon: qLon}
		if !(spanLat >= 0 && spanLon >= 0) || !box.Min.Valid() || !box.Max.Valid() || !q.Valid() || len(data) > 4<<10 {
			t.Skip()
		}
		bf, qt := NewBruteForce(), NewQuadtree(box, 2)
		for i := 0; i+4 <= len(data); i += 4 {
			it := Item{ID: int64(i / 4), P: geo.Point{
				Lat: minLat + spanLat*float64(binary.BigEndian.Uint16(data[i:]))/math.MaxUint16,
				Lon: minLon + spanLon*float64(binary.BigEndian.Uint16(data[i+2:]))/math.MaxUint16,
			}}
			if !box.Contains(it.P) { // rounding past the far edge: the tree would clamp it
				continue
			}
			bf.Insert(it)
			qt.Insert(it)
		}
		checkWithin(t, bf, qt, q, radius)
		if bf.Len() > 0 {
			d := geo.Distance(q, bf.items[len(data)%bf.Len()].P)
			for _, r := range []float64{d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1))} {
				checkWithin(t, bf, qt, q, r)
			}
		}
	})
}
