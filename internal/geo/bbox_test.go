package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewBBoxAndContains(t *testing.T) {
	b := NewBBox(Point{53.0, 8.0}, Point{53.3, 8.5}, Point{53.1, 8.2})
	if !b.Contains(Point{53.15, 8.25}) {
		t.Error("interior point not contained")
	}
	if b.Contains(Point{52.9, 8.25}) {
		t.Error("exterior point contained")
	}
	// Corners are inclusive.
	if !b.Contains(b.Min) || !b.Contains(b.Max) {
		t.Error("corners must be contained")
	}
}

func TestNewBBoxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBBox() did not panic on empty input")
		}
	}()
	NewBBox()
}

func TestBBoxExtendIsMonotone(t *testing.T) {
	f := func(s1, s2, s3 float64) bool {
		a, b, c := pointFromSeed(s1), pointFromSeed(s2), pointFromSeed(s3)
		box := NewBBox(a, b).Extend(c)
		return box.Contains(a) && box.Contains(b) && box.Contains(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBBoxIntersects(t *testing.T) {
	a := BBox{Min: Point{0, 0}, Max: Point{2, 2}}
	b := BBox{Min: Point{1, 1}, Max: Point{3, 3}}
	c := BBox{Min: Point{5, 5}, Max: Point{6, 6}}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("overlapping boxes must intersect")
	}
	if a.Intersects(c) {
		t.Error("disjoint boxes must not intersect")
	}
	// Touching edges count as intersecting.
	d := BBox{Min: Point{2, 0}, Max: Point{4, 2}}
	if !a.Intersects(d) {
		t.Error("edge-touching boxes must intersect")
	}
}

func TestBBoxUnionContainsBoth(t *testing.T) {
	f := func(s1, s2, s3, s4 float64) bool {
		a := NewBBox(pointFromSeed(s1), pointFromSeed(s2))
		b := NewBBox(pointFromSeed(s3), pointFromSeed(s4))
		u := a.Union(b)
		return u.Contains(a.Min) && u.Contains(a.Max) && u.Contains(b.Min) && u.Contains(b.Max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBBoxDistanceTo(t *testing.T) {
	b := NewBBox(Point{53.0, 8.0}, Point{53.2, 8.4})
	if d := b.DistanceTo(Point{53.1, 8.2}); d != 0 {
		t.Errorf("inside point distance = %v, want 0", d)
	}
	out := Point{53.3, 8.2}
	d := b.DistanceTo(out)
	direct := Distance(out, Point{53.2, 8.2})
	if math.Abs(d-direct) > 1 {
		t.Errorf("distance to box = %.1f, want %.1f", d, direct)
	}
}

// TestBBoxDistanceBoundsRegression pins the box the clamp-to-the-box distance
// got wrong: from (53.0, 8.0) the nearest point of lat [52.9, 53.1] × lon
// [8.5, 9.0] is not the clamped (53.0, 8.5) at 33 459.435 m but, the cosine of
// the mean latitude falling faster than the latitude gap grows, a point just
// north of it at 33 459.232 m.
func TestBBoxDistanceBoundsRegression(t *testing.T) {
	b := BBox{Min: Point{52.9, 8.5}, Max: Point{53.1, 9.0}}
	q := Point{53.0, 8.0}
	clamped, nearer := Distance(q, Point{53.0, 8.5}), Distance(q, Point{53.00105, 8.5})
	if !(nearer < clamped) {
		t.Fatalf("the case is gone: %.3f m to the clamped point, %.3f m north of it", clamped, nearer)
	}
	lo, hi := b.DistanceTo(q), b.MaxDistanceTo(q)
	if lo > nearer {
		t.Errorf("lower bound %.3f m is above a point of the box at %.3f m", lo, nearer)
	}
	if far := Distance(q, Point{52.9, 9.0}); hi < far {
		t.Errorf("upper bound %.3f m is below a corner of the box at %.3f m", hi, far)
	}
}

// TestBBoxDistanceBoundsAreSound: no point of a box is nearer than the lower
// bound or farther than the upper — corners, edge points and interior points,
// from query points inside, beside and far from boxes of every size, on both
// hemispheres and across the equator — and the bounds stay useful: within a
// few percent of the distances they bracket for a city-sized box.
func TestBBoxDistanceBoundsAreSound(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	between := func(a, b float64) float64 { return a + rng.Float64()*(b-a) }
	for trial := 0; trial < 20000; trial++ {
		size := []float64{1e-6, 1e-3, 0.1, 2, 40}[trial%5]
		c := Point{Lat: between(-80, 80), Lon: between(-170, 170)}
		if trial%7 == 0 {
			c.Lat = between(-size, size) // straddles the equator
		}
		b := BBox{Min: Point{c.Lat - size*rng.Float64(), c.Lon - size*rng.Float64()}, Max: Point{c.Lat + size*rng.Float64(), c.Lon + size*rng.Float64()}}
		q := Point{Lat: between(c.Lat-3*size, c.Lat+3*size), Lon: between(c.Lon-3*size, c.Lon+3*size)}
		if !q.Valid() || !b.Min.Valid() || !b.Max.Valid() {
			continue
		}
		lo, hi := b.DistanceTo(q), b.MaxDistanceTo(q)
		if b.Contains(q) && lo != 0 {
			t.Fatalf("box %v holds %v, lower bound %v", b, q, lo)
		}
		lats := []float64{b.Min.Lat, b.Max.Lat, between(b.Min.Lat, b.Max.Lat), math.Min(math.Max(q.Lat, b.Min.Lat), b.Max.Lat)}
		lons := []float64{b.Min.Lon, b.Max.Lon, between(b.Min.Lon, b.Max.Lon), math.Min(math.Max(q.Lon, b.Min.Lon), b.Max.Lon)}
		nearest, farthest := math.Inf(1), 0.0
		for _, lat := range lats {
			for _, lon := range lons {
				d := Distance(q, Point{lat, lon})
				if d < lo || d > hi {
					t.Fatalf("box %v from %v: point (%v, %v) at %v m, bounds [%v, %v]", b, q, lat, lon, d, lo, hi)
				}
				nearest, farthest = math.Min(nearest, d), math.Max(farthest, d)
			}
		}
		if size == 0.1 && math.Abs(c.Lat) < 60 && (lo < 0.97*nearest-1 || hi > 1.03*farthest+1) {
			t.Fatalf("box %v from %v: bounds [%v, %v] around distances [%v, %v] are too loose to prune by", b, q, lo, hi, nearest, farthest)
		}
	}
}

func TestBBoxBufferGrows(t *testing.T) {
	b := NewBBox(Point{53.0, 8.0}, Point{53.2, 8.4})
	g := b.Buffer(1000)
	if !g.Contains(b.Min) || !g.Contains(b.Max) {
		t.Fatal("buffered box must contain original")
	}
	// A point ~500m north of the original box edge must be inside.
	p := Destination(Point{53.2, 8.2}, 0, 500)
	if !g.Contains(p) {
		t.Errorf("point 500m outside original not within 1km buffer: %v", p)
	}
}

func TestPointSegmentDistance(t *testing.T) {
	a := Point{53.10, 8.20}
	b := Point{53.10, 8.30} // ~6.7km east-west segment
	// Point due north of the middle.
	p := Destination(Midpoint(a, b), 0, 1000)
	d, frac := PointSegmentDistance(p, a, b)
	if math.Abs(d-1000) > 20 {
		t.Errorf("perpendicular distance = %.1f, want ~1000", d)
	}
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("projection fraction = %.2f, want ~0.5", frac)
	}
	// Point beyond endpoint b projects to t=1 and distance to b.
	q := Destination(b, 90, 2000)
	d2, f2 := PointSegmentDistance(q, a, b)
	if f2 != 1 {
		t.Errorf("projection beyond end: t=%v, want 1", f2)
	}
	if math.Abs(d2-2000) > 40 {
		t.Errorf("distance beyond end = %.1f, want ~2000", d2)
	}
}

func TestPointSegmentDistanceDegenerate(t *testing.T) {
	a := Point{53.1, 8.2}
	p := Destination(a, 45, 300)
	d, frac := PointSegmentDistance(p, a, a)
	if frac != 0 {
		t.Errorf("degenerate segment t = %v, want 0", frac)
	}
	if math.Abs(d-300) > 10 {
		t.Errorf("degenerate segment distance = %.1f, want ~300", d)
	}
}

func TestPolylineLength(t *testing.T) {
	pts := []Point{{53.1, 8.2}, {53.1, 8.25}, {53.12, 8.25}}
	want := Distance(pts[0], pts[1]) + Distance(pts[1], pts[2])
	if got := PolylineLength(pts); math.Abs(got-want) > 1e-9 {
		t.Errorf("PolylineLength = %v, want %v", got, want)
	}
	if got := PolylineLength(pts[:1]); got != 0 {
		t.Errorf("single-point polyline length = %v, want 0", got)
	}
	if got := PolylineLength(nil); got != 0 {
		t.Errorf("nil polyline length = %v, want 0", got)
	}
}

func TestBBoxWidthHeight(t *testing.T) {
	// A box 0.1 deg tall is ~11.1 km.
	b := NewBBox(Point{53.0, 8.0}, Point{53.1, 8.0})
	h := b.HeightMeters()
	if h < 11000 || h > 11300 {
		t.Errorf("height = %.0f, want ~11120", h)
	}
	if w := b.WidthMeters(); w != 0 {
		t.Errorf("width = %v, want 0", w)
	}
}
