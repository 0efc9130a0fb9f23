package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// Two reference cities used across tests.
var (
	oldenburg = Point{Lat: 53.1435, Lon: 8.2146}
	bremen    = Point{Lat: 53.0793, Lon: 8.8017}
)

func TestHaversineKnownDistance(t *testing.T) {
	// Oldenburg -> Bremen is roughly 39.8 km.
	d := Haversine(oldenburg, bremen)
	if d < 39000 || d > 41000 {
		t.Fatalf("Haversine(Oldenburg, Bremen) = %.0f m, want ~39800 m", d)
	}
}

func TestHaversineZero(t *testing.T) {
	if d := Haversine(oldenburg, oldenburg); d != 0 {
		t.Fatalf("distance to self = %v, want 0", d)
	}
}

func TestEquirectangularCloseToHaversineUrbanScale(t *testing.T) {
	// At urban scale the approximation error must be < 0.1%.
	a := Point{Lat: 53.10, Lon: 8.20}
	b := Point{Lat: 53.18, Lon: 8.30}
	h := Haversine(a, b)
	e := Distance(a, b)
	if rel := math.Abs(h-e) / h; rel > 0.001 {
		t.Fatalf("equirectangular error %.4f%% too large (h=%.1f e=%.1f)", rel*100, h, e)
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{Lat: clampLat(lat1), Lon: clampLon(lon1)}
		b := Point{Lat: clampLat(lat2), Lon: clampLon(lon2)}
		return math.Abs(Haversine(a, b)-Haversine(b, a)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequalityHaversine(t *testing.T) {
	f := func(seed1, seed2, seed3 float64) bool {
		a := pointFromSeed(seed1)
		b := pointFromSeed(seed2)
		c := pointFromSeed(seed3)
		// Allow a tiny epsilon for floating error.
		return Haversine(a, c) <= Haversine(a, b)+Haversine(b, c)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	f := func(seed, brgSeed, distSeed float64) bool {
		p := pointFromSeed(seed)
		brg := math.Mod(math.Abs(brgSeed), 360)
		dist := math.Mod(math.Abs(distSeed), 50000) // up to 50 km
		q := Destination(p, brg, dist)
		back := Haversine(p, q)
		return math.Abs(back-dist) < dist*0.001+1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPointValid(t *testing.T) {
	cases := []struct {
		p  Point
		ok bool
	}{
		{Point{0, 0}, true},
		{Point{90, 180}, true},
		{Point{-90, -180}, true},
		{Point{91, 0}, false},
		{Point{0, 181}, false},
		{Point{math.NaN(), 0}, false},
	}
	for _, c := range cases {
		if got := c.p.Valid(); got != c.ok {
			t.Errorf("Valid(%v) = %v, want %v", c.p, got, c.ok)
		}
	}
}

func clampLat(v float64) float64 { return math.Mod(math.Abs(v), 80) }
func clampLon(v float64) float64 { return math.Mod(math.Abs(v), 170) }

func pointFromSeed(s float64) Point {
	if math.IsNaN(s) || math.IsInf(s, 0) {
		s = 1
	}
	s = math.Mod(math.Abs(s), 1e6) // avoid overflow when scaling below
	return Point{
		Lat: math.Mod(s*37.77, 70) - 35,
		Lon: math.Mod(s*97.13, 160) - 80,
	}
}
