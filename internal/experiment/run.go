package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"ecocharge/internal/cknn"
	"ecocharge/internal/stats"
	"ecocharge/internal/trajectory"
)

// RunConfig carries the evaluation parameters shared by all experiment
// series. Zero values select the paper's defaults.
type RunConfig struct {
	K          int     // chargers per Offering Table (default 3)
	RadiusM    float64 // R (default 50 km)
	ReuseDistM float64 // Q (default 5 km)
	// SegmentLenM is the continuous re-evaluation step: a query is issued
	// each time the vehicle advances this far (the paper updates results
	// at every segment intersection of the trip). Default 500 m.
	SegmentLenM float64
	Weights     cknn.Weights
	Repetitions int // measurement repetitions (paper: ~10; default 5)
	TripsPerRep int // trips sampled per repetition (default 8)
}

func (c RunConfig) withDefaults() RunConfig {
	if c.K <= 0 {
		c.K = 3
	}
	if c.RadiusM <= 0 {
		c.RadiusM = 50000
	}
	if c.ReuseDistM <= 0 {
		c.ReuseDistM = 5000
	}
	if c.SegmentLenM <= 0 {
		c.SegmentLenM = 500
	}
	if c.Weights == (cknn.Weights{}) {
		c.Weights = cknn.EqualWeights()
	}
	if c.Repetitions <= 0 {
		c.Repetitions = 5
	}
	if c.TripsPerRep <= 0 {
		c.TripsPerRep = 8
	}
	return c
}

// forEachCell runs fn(i) for every cell index in [0, n), one after another:
// F_t is wall time around Rank, so a timed repetition never shares the
// process with another. It stops before the next cell once ctx is cancelled
// and returns ctx.Err().
func forEachCell(ctx context.Context, n int, fn func(i int)) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		fn(i)
	}
	return nil
}

// Measurement is one figure data point: a method on a dataset under one
// configuration.
type Measurement struct {
	Dataset string
	Method  string
	Config  string // e.g. "R=50km" for the sweeps; empty otherwise

	SCPercent stats.Summary // SC as % of brute force, per repetition
	FtMillis  stats.Summary // mean per-query CPU ms, per repetition

	Queries   int // total queries measured across repetitions
	CacheHits int // EcoCharge only
	CacheMiss int
	// Shares are the achieved objective contributions of the chosen
	// chargers (ablation study): fraction of the truth SC mass coming from
	// L, A and (1−D). Zero for non-ablation runs.
	Shares ObjectiveShares
}

// ObjectiveShares are the achieved per-objective contribution fractions,
// summing to 1 for ablation measurements.
type ObjectiveShares struct {
	L, A, D float64
}

// methodFactory builds a fresh method instance per repetition so per-trip
// state never leaks across repetitions.
type methodFactory struct {
	name  string
	build func(env *cknn.Env, cfg RunConfig, seed int64) cknn.Method
}

func allMethodFactories() []methodFactory {
	return []methodFactory{
		{"BruteForce", func(env *cknn.Env, _ RunConfig, _ int64) cknn.Method {
			return cknn.NewBruteForce(env)
		}},
		{"Index-Quadtree", func(env *cknn.Env, _ RunConfig, _ int64) cknn.Method {
			return cknn.NewIndexQuadtree(env)
		}},
		{"Random", func(env *cknn.Env, _ RunConfig, seed int64) cknn.Method {
			return cknn.NewRandom(env, seed)
		}},
		{"EcoCharge", func(env *cknn.Env, cfg RunConfig, _ int64) cknn.Method {
			return cknn.NewEcoCharge(env, cknn.EcoChargeOptions{
				RadiusM: cfg.RadiusM, ReuseDistM: cfg.ReuseDistM,
			})
		}},
	}
}

func ecoOnlyFactory() []methodFactory {
	fs := allMethodFactories()
	return []methodFactory{fs[0], fs[3]} // brute force (denominator) + EcoCharge
}

// repResult accumulates one repetition of one method.
type repResult struct {
	truthSum float64
	ftMillis []float64
	queries  int
}

// runOnce executes one repetition: the sampled trips are evaluated by every
// factory's method, per-query latency is measured around Rank only, and the
// chosen chargers of each method are scored against ground truth. It
// returns per-method results plus the brute-force truth sum (the SC%
// denominator). The first factory must be BruteForce.
func runOnce(sc *Scenario, cfg RunConfig, factories []methodFactory, rep int) (map[string]*repResult, map[string]cknn.Method) {
	rng := rand.New(rand.NewSource(sc.Seed*1000 + int64(rep)))
	trips := sampleTrips(rng, sc.Trips, cfg.TripsPerRep)
	opts := cknn.TripOptions{
		K: cfg.K, SegmentLenM: cfg.SegmentLenM, RadiusM: cfg.RadiusM, Weights: cfg.Weights,
	}
	engine := cknn.Engine{Env: sc.Env}

	methods := make(map[string]cknn.Method, len(factories))
	results := make(map[string]*repResult, len(factories))
	for _, f := range factories {
		methods[f.name] = f.build(sc.Env, cfg, sc.Seed*77+int64(rep))
		results[f.name] = &repResult{}
	}

	for _, trip := range trips {
		segs := trajectory.SegmentTrip(sc.Graph, trip, cfg.SegmentLenM)
		for _, m := range methods {
			m.Reset()
		}
		for _, seg := range segs {
			q := cknn.QueryForSegment(trip, seg, opts)
			picks := make(map[string][]int64, len(factories))
			for _, f := range factories {
				m := methods[f.name]
				start := time.Now()
				table := m.Rank(q)
				elapsed := time.Since(start)
				r := results[f.name]
				r.ftMillis = append(r.ftMillis, float64(elapsed)/float64(time.Millisecond))
				r.queries++
				picks[f.name] = table.IDs()
			}
			tm := engine.TruthMaps(q)
			for name, ids := range picks {
				r := results[name]
				for _, id := range ids {
					c, ok := sc.Env.Chargers.ByID(id)
					if !ok {
						continue
					}
					if v, ok := engine.TruthSC(q, tm, c); ok {
						r.truthSum += v
					}
				}
			}
		}
	}
	return results, methods
}

func sampleTrips(rng *rand.Rand, trips []trajectory.Trip, n int) []trajectory.Trip {
	if n >= len(trips) {
		return trips
	}
	perm := rng.Perm(len(trips))
	out := make([]trajectory.Trip, n)
	for i := 0; i < n; i++ {
		out[i] = trips[perm[i]]
	}
	return out
}

// RunPerformance executes the Fig. 6 series on one scenario: the four
// methods under the default configuration.
func RunPerformance(ctx context.Context, sc *Scenario, cfg RunConfig) ([]Measurement, error) {
	return runSeries(ctx, sc, cfg, allMethodFactories(), "")
}

// runSeries runs repetitions of the factories on the scenario, aggregating
// SC% (vs the BruteForce factory, which must be present) and F_t.
// Repetitions are the sweep cells: each owns its RNG seed and its method
// instances, and they run one at a time.
func runSeries(ctx context.Context, sc *Scenario, cfg RunConfig, factories []methodFactory, label string) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	if len(sc.Trips) == 0 {
		return nil, fmt.Errorf("experiment: scenario %s has no trips", sc.Name)
	}
	if factories[0].name != "BruteForce" {
		return nil, fmt.Errorf("experiment: first factory must be BruteForce (got %s)", factories[0].name)
	}
	type repOut struct {
		results map[string]*repResult
		methods map[string]cknn.Method
	}
	outs := make([]repOut, cfg.Repetitions)
	err := forEachCell(ctx, cfg.Repetitions, func(rep int) {
		results, methods := runOnce(sc, cfg, factories, rep)
		outs[rep] = repOut{results: results, methods: methods}
	})
	if err != nil {
		return nil, err
	}

	scPct := make(map[string][]float64)
	ft := make(map[string][]float64)
	queries := make(map[string]int)
	hits := make(map[string]int)
	misses := make(map[string]int)
	for _, o := range outs {
		denom := o.results["BruteForce"].truthSum
		for name, r := range o.results {
			if denom > 0 {
				scPct[name] = append(scPct[name], r.truthSum/denom*100)
			}
			ft[name] = append(ft[name], stats.Mean(r.ftMillis))
			queries[name] += r.queries
		}
		for name, m := range o.methods {
			if eco, ok := m.(*cknn.EcoCharge); ok {
				h, ms := eco.Stats()
				hits[name] += h
				misses[name] += ms
			}
		}
	}

	out := make([]Measurement, 0, len(factories))
	for _, f := range factories {
		out = append(out, Measurement{
			Dataset:   sc.Name,
			Method:    f.name,
			Config:    label,
			SCPercent: stats.Summarize(scPct[f.name]),
			FtMillis:  stats.Summarize(ft[f.name]),
			Queries:   queries[f.name],
			CacheHits: hits[f.name],
			CacheMiss: misses[f.name],
		})
	}
	return out, nil
}

// RunROpt executes the Fig. 7 series: EcoCharge under R ∈ radiiKM (paper:
// 25, 50, 75 km), reporting SC% against the same brute-force optimum.
func RunROpt(ctx context.Context, sc *Scenario, cfg RunConfig, radiiKM []float64) ([]Measurement, error) {
	if len(radiiKM) == 0 {
		radiiKM = []float64{25, 50, 75}
	}
	var out []Measurement
	for _, r := range radiiKM {
		c := cfg
		c.RadiusM = r * 1000
		ms, err := runSeries(ctx, sc, c, ecoOnlyFactory(), fmt.Sprintf("R=%.0fkm", r))
		if err != nil {
			return nil, err
		}
		// Keep only the EcoCharge rows; brute force is the denominator.
		for _, m := range ms {
			if m.Method == "EcoCharge" {
				out = append(out, m)
			}
		}
	}
	return out, nil
}

// RunQOpt executes the Fig. 8 series: EcoCharge under Q ∈ qKM (paper: 5,
// 10, 15 km).
func RunQOpt(ctx context.Context, sc *Scenario, cfg RunConfig, qKM []float64) ([]Measurement, error) {
	if len(qKM) == 0 {
		qKM = []float64{5, 10, 15}
	}
	var out []Measurement
	for _, qv := range qKM {
		c := cfg
		c.ReuseDistM = qv * 1000
		ms, err := runSeries(ctx, sc, c, ecoOnlyFactory(), fmt.Sprintf("Q=%.0fkm", qv))
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			if m.Method == "EcoCharge" {
				out = append(out, m)
			}
		}
	}
	return out, nil
}
