package trajectory

import (
	"reflect"
	"testing"
	"time"

	"ecocharge/internal/roadnet"
)

func streamTestGraph() *roadnet.Graph {
	cfg := roadnet.DefaultUrbanConfig()
	cfg.Seed = 11
	cfg.WidthKM, cfg.HeightKM = 10, 8
	return roadnet.GenerateUrban(cfg)
}

// TestSamplerMatchesGenerate pins the refactor contract: streaming N trips
// from a Sampler yields the byte-identical sequence Generate returns for
// the same config — including a hotspot-biased one, whose extra RNG draws
// are the easy thing to get out of order.
func TestSamplerMatchesGenerate(t *testing.T) {
	g := streamTestGraph()
	start := time.Date(2024, 6, 18, 8, 0, 0, 0, time.UTC)
	for _, cfg := range []GenConfig{
		{N: 40, Seed: 42, MinTripKM: 1, MaxTripKM: 12, Start: start, Window: time.Hour},
		{N: 40, Seed: 7, MinTripKM: 0.5, Start: start, Window: 2 * time.Hour, HotspotFrac: 0.6, Hotspots: 4},
	} {
		want, err := Generate(g, cfg)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		s, err := NewSampler(g, cfg)
		if err != nil {
			t.Fatalf("NewSampler: %v", err)
		}
		for i, w := range want {
			got, err := s.Next()
			if err != nil {
				t.Fatalf("Next(%d): %v", i, err)
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("trip %d diverges: sampler %+v, generate %+v", i, got, w)
			}
		}
	}
}

// TestSamplerStreamsPastN shows the sampler is unbounded: it keeps
// producing valid trips beyond any GenConfig.N, with monotone IDs.
func TestSamplerStreamsPastN(t *testing.T) {
	g := streamTestGraph()
	cfg := GenConfig{N: 2, Seed: 3, MinTripKM: 1, Start: time.Unix(0, 0).UTC(), Window: time.Hour}
	s, err := NewSampler(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 25; i++ {
		trip, err := s.Next()
		if err != nil {
			t.Fatalf("Next(%d): %v", i, err)
		}
		if trip.ID != int64(i) {
			t.Fatalf("trip ID %d, want %d", trip.ID, i)
		}
		if len(trip.Path.Nodes) < 2 {
			t.Fatalf("trip %d has degenerate path", i)
		}
		if trip.Path.Weight/1000 < cfg.MinTripKM {
			t.Fatalf("trip %d below MinTripKM: %.2f km", i, trip.Path.Weight/1000)
		}
	}
}

// TestSamplerConfigMatchesGenerateTrips pins the profile contract: a
// sampler built from SamplerConfig streams the exact trips GenerateTrips
// materializes for the same profile, scale, and seed.
func TestSamplerConfigMatchesGenerateTrips(t *testing.T) {
	p, err := ProfileByName("Oldenburg")
	if err != nil {
		t.Fatal(err)
	}
	g := p.BuildGraph(5)
	start := time.Date(2024, 6, 18, 8, 0, 0, 0, time.UTC)
	want, err := p.GenerateTrips(g, 0.001, 5, start)
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.SamplerConfig(5, start)
	if cfg.N != 0 {
		t.Fatalf("SamplerConfig.N=%d, want 0 (unbounded)", cfg.N)
	}
	s, err := NewSampler(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		got, err := s.Next()
		if err != nil {
			t.Fatalf("Next(%d): %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("trip %d diverges from GenerateTrips", i)
		}
	}
}

// TestSamplerRejectsTinyGraph mirrors Generate's validation.
func TestSamplerRejectsTinyGraph(t *testing.T) {
	g := roadnet.NewGraph(0, 0)
	if _, err := NewSampler(g, GenConfig{N: 1}); err == nil {
		t.Fatal("expected error for empty graph")
	}
}
