package trajectory

import (
	"fmt"
	"math/rand"
	"time"

	"ecocharge/internal/roadnet"
)

// Sampler streams Brinkhoff-style trips one at a time instead of
// materializing a full slice up front. The load harness drives millions of
// synthetic trips through it without holding them all in memory; Generate
// is now a thin collector over the same sampler, so a Sampler with the
// same GenConfig emits the byte-identical trip sequence (same RNG call
// order: hotspots first, then per attempt src/dst picks, then the
// departure draw on success).
type Sampler struct {
	g       *roadnet.Graph
	cfg     GenConfig
	rng     *rand.Rand
	hot     []roadnet.NodeID
	emitted int64
}

// NewSampler validates the graph, applies the GenConfig defaults and draws
// the hotspot set — everything Generate did before its trip loop.
func NewSampler(g *roadnet.Graph, cfg GenConfig) (*Sampler, error) {
	if g.NumNodes() < 2 {
		return nil, fmt.Errorf("trajectory: graph too small (%d nodes)", g.NumNodes())
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Hour
	}
	if cfg.Hotspots <= 0 {
		cfg.Hotspots = 5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	hot := make([]roadnet.NodeID, cfg.Hotspots)
	for i := range hot {
		hot[i] = roadnet.NodeID(rng.Intn(g.NumNodes()))
	}
	return &Sampler{g: g, cfg: cfg, rng: rng, hot: hot}, nil
}

// pick draws one endpoint. The rng.Float64 call happens on every biased
// pick regardless of HotspotFrac so the stream stays byte-identical to the
// pre-sampler Generate for every config.
func (s *Sampler) pick(hotBiased bool) roadnet.NodeID {
	if hotBiased && s.rng.Float64() < s.cfg.HotspotFrac {
		return s.hot[s.rng.Intn(len(s.hot))]
	}
	return roadnet.NodeID(s.rng.Intn(s.g.NumNodes()))
}

// Next produces the next trip. Unlike Generate it is not bounded by cfg.N:
// callers stream as many trips as their run needs. It returns an error
// when the graph cannot satisfy the length constraints within the bounded
// attempt budget.
func (s *Sampler) Next() (Trip, error) {
	const maxAttempts = 200
	for attempt := 0; attempt < maxAttempts; attempt++ {
		src := s.pick(true)
		dst := s.pick(true)
		if src == dst {
			continue
		}
		path, found := s.g.ShortestPath(src, dst, roadnet.DistanceWeight)
		if !found {
			continue
		}
		km := path.Weight / 1000
		if km < s.cfg.MinTripKM {
			continue
		}
		if s.cfg.MaxTripKM > 0 && km > s.cfg.MaxTripKM {
			continue
		}
		depart := s.cfg.Start.Add(time.Duration(s.rng.Float64() * float64(s.cfg.Window)))
		s.emitted++
		return Trip{ID: s.emitted, Path: path, Depart: depart}, nil
	}
	return Trip{}, fmt.Errorf("trajectory: could not generate trip %d within %d attempts (graph connectivity or length constraints too strict)", s.emitted, maxAttempts)
}
