package geo

import (
	"math"
	"testing"
)

func TestDestinationCrossesAntimeridian(t *testing.T) {
	// 200 km due east from just west of the date line lands just east of
	// it, with longitude normalized into [-180, 180].
	p := Point{Lat: 0, Lon: 179.5}
	q := Destination(p, 90, 200000)
	if q.Lon > -178 || q.Lon < -180 {
		t.Fatalf("crossed longitude = %v, want ≈ -178.7", q.Lon)
	}
	if !q.Valid() {
		t.Fatalf("invalid point after crossing: %v", q)
	}
}

func TestDestinationNearPole(t *testing.T) {
	p := Point{Lat: 89.5, Lon: 0}
	q := Destination(p, 0, 100000) // 100 km north crosses the pole region
	if !q.Valid() {
		t.Fatalf("invalid point near pole: %v", q)
	}
	if math.Abs(Haversine(p, q)-100000) > 1000 {
		t.Fatalf("distance %v, want ~100km", Haversine(p, q))
	}
}

func TestHaversineAntipodal(t *testing.T) {
	a := Point{Lat: 0, Lon: 0}
	b := Point{Lat: 0, Lon: 180}
	d := Haversine(a, b)
	half := math.Pi * EarthRadius
	if math.Abs(d-half) > 1000 {
		t.Fatalf("antipodal distance %v, want %v", d, half)
	}
}

func TestBBoxBufferNearPole(t *testing.T) {
	b := NewBBox(Point{Lat: 89.0, Lon: 10}, Point{Lat: 89.5, Lon: 20})
	g := b.Buffer(10000)
	if !g.Contains(b.Min) || !g.Contains(b.Max) {
		t.Fatal("buffered polar box lost the original")
	}
	// The longitude padding must be finite despite cos(lat) → 0.
	if math.IsInf(g.Min.Lon, 0) || math.IsNaN(g.Min.Lon) {
		t.Fatalf("polar buffer degenerate: %v", g)
	}
}
