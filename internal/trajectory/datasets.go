package trajectory

import (
	"fmt"
	"time"

	"ecocharge/internal/geo"
	"ecocharge/internal/roadnet"
)

// Profile describes one of the evaluation datasets: how to build its road
// network and how its trips are distributed. The four shipped profiles are
// synthetic equivalents of the paper's Oldenburg, California, T-drive and
// Geolife workloads; counts at scale 1.0 match the paper, and experiments
// run at reduced scale to keep wall-clock reasonable (the scale is reported
// alongside results).
type Profile struct {
	// Name as used in the paper's figures.
	Name string
	// FullTrips is the trajectory count the original dataset has.
	FullTrips int
	// Chargers is the inventory size at scale 1.0 (paper: >1,000).
	Chargers int
	// buildGraph constructs the road network for this dataset.
	buildGraph func(seed int64) *roadnet.Graph
	// tripConfig returns the generator settings for n trips.
	tripConfig func(n int, seed int64, start time.Time) GenConfig
}

// BuildGraph constructs the profile's road network.
func (p *Profile) BuildGraph(seed int64) *roadnet.Graph { return p.buildGraph(seed) }

// GenerateTrips builds scale·FullTrips trips (at least 1) on g.
func (p *Profile) GenerateTrips(g *roadnet.Graph, scale float64, seed int64, start time.Time) ([]Trip, error) {
	n := int(float64(p.FullTrips) * scale)
	if n < 1 {
		n = 1
	}
	return Generate(g, p.tripConfig(n, seed, start))
}

// SamplerConfig returns the profile's generator settings for streaming an
// unbounded trip sequence via NewSampler (GenConfig.N is left 0: the
// sampler has no trip bound). Apart from N it is the exact config
// GenerateTrips uses, so a streamed prefix matches a generated slice.
func (p *Profile) SamplerConfig(seed int64, start time.Time) GenConfig {
	return p.tripConfig(0, seed, start)
}

// ProfileByName returns the named profile or an error listing valid names.
func ProfileByName(name string) (*Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	names := make([]string, 0, 4)
	for _, p := range Profiles() {
		names = append(names, p.Name)
	}
	return nil, fmt.Errorf("trajectory: unknown profile %q (have %v)", name, names)
}

// Profiles returns the four evaluation dataset profiles in the order the
// paper's figures present them (smallest to largest).
func Profiles() []*Profile {
	return []*Profile{oldenburg(), california(), tdrive(), geolife()}
}

// oldenburg: Brinkhoff-generated trajectories over a 45×35 km urban grid —
// medium-length city trips, no strong downtown bias.
func oldenburg() *Profile {
	return &Profile{
		Name:      "Oldenburg",
		FullTrips: 4000,
		Chargers:  1000,
		buildGraph: func(seed int64) *roadnet.Graph {
			cfg := roadnet.DefaultUrbanConfig()
			cfg.Seed = seed
			return roadnet.GenerateUrban(cfg)
		},
		tripConfig: func(n int, seed int64, start time.Time) GenConfig {
			return GenConfig{
				N: n, Seed: seed, MinTripKM: 3, MaxTripKM: 30,
				Start: start, Window: 2 * time.Hour,
			}
		},
	}
}

// california: long corridor trips over the sparse 1,220×400 km highway
// network (run here at reduced physical scale with preserved aspect ratio).
func california() *Profile {
	return &Profile{
		Name:      "California",
		FullTrips: 7000,
		Chargers:  1200,
		buildGraph: func(seed int64) *roadnet.Graph {
			cfg := roadnet.DefaultHighwayConfig()
			cfg.Seed = seed
			return roadnet.GenerateHighway(cfg)
		},
		tripConfig: func(n int, seed int64, start time.Time) GenConfig {
			return GenConfig{
				N: n, Seed: seed, MinTripKM: 5, MaxTripKM: 0,
				Start: start, Window: 3 * time.Hour,
			}
		},
	}
}

// tdrive: Beijing taxi fleet — many short urban trips with heavy downtown
// bias, the densest query stream of the evaluation.
func tdrive() *Profile {
	return &Profile{
		Name:      "T-drive",
		FullTrips: 10357,
		Chargers:  1500,
		buildGraph: func(seed int64) *roadnet.Graph {
			cfg := roadnet.UrbanConfig{
				Origin:  geo.Point{Lat: 39.75, Lon: 116.20}, // Beijing-like
				WidthKM: 40, HeightKM: 40, SpacingM: 450,
				RemoveFrac: 0.06, JitterFrac: 0.2, ArterialEach: 4, Seed: seed,
			}
			return roadnet.GenerateUrban(cfg)
		},
		tripConfig: func(n int, seed int64, start time.Time) GenConfig {
			return GenConfig{
				N: n, Seed: seed, MinTripKM: 2, MaxTripKM: 20,
				Start: start, Window: 6 * time.Hour,
				HotspotFrac: 0.6, Hotspots: 6,
			}
		},
	}
}

// geolife: heterogeneous mixed-mode trajectories with dense 1–5 s sampling
// for most of the data; modeled as a wide trip-length mix over a large
// urban area.
func geolife() *Profile {
	return &Profile{
		Name:      "Geolife",
		FullTrips: 17621,
		Chargers:  1500,
		buildGraph: func(seed int64) *roadnet.Graph {
			cfg := roadnet.UrbanConfig{
				Origin:  geo.Point{Lat: 39.70, Lon: 116.10},
				WidthKM: 50, HeightKM: 45, SpacingM: 500,
				RemoveFrac: 0.08, JitterFrac: 0.25, ArterialEach: 5, Seed: seed,
			}
			return roadnet.GenerateUrban(cfg)
		},
		tripConfig: func(n int, seed int64, start time.Time) GenConfig {
			return GenConfig{
				N: n, Seed: seed, MinTripKM: 1, MaxTripKM: 40,
				Start: start, Window: 8 * time.Hour,
				HotspotFrac: 0.3, Hotspots: 10,
			}
		},
	}
}
