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
	// chargers: fraction of the truth SC mass coming from L, A and (1−D).
	// The ablation study (Fig. 9) annotates them.
	Shares ObjectiveShares
}

// ObjectiveShares are the achieved per-objective contribution fractions,
// summing to 1 whenever a method picked a reachable charger.
type ObjectiveShares struct {
	L, A, D float64
}

// methodFactory builds a fresh method instance per repetition so per-trip
// state never leaks across repetitions. query, when set, derives the query
// the method answers from the segment's query; the answer is still scored
// against the segment's own query.
type methodFactory struct {
	name  string
	build func(env *cknn.Env, cfg RunConfig, seed int64) cknn.Method
	query func(cknn.Query) cknn.Query
}

func allMethodFactories() []methodFactory {
	return []methodFactory{
		{name: "BruteForce", build: func(env *cknn.Env, _ RunConfig, _ int64) cknn.Method {
			return cknn.NewBruteForce(env)
		}},
		{name: "Index-Quadtree", build: func(env *cknn.Env, _ RunConfig, _ int64) cknn.Method {
			return cknn.NewIndexQuadtree(env)
		}},
		{name: "Random", build: func(env *cknn.Env, _ RunConfig, seed int64) cknn.Method {
			return cknn.NewRandom(env, seed)
		}},
		ecoFactory("EcoCharge"),
	}
}

// ecoFactory is EcoCharge under the configuration's R and Q.
func ecoFactory(name string) methodFactory {
	return methodFactory{name: name, build: func(env *cknn.Env, cfg RunConfig, _ int64) cknn.Method {
		return cknn.NewEcoCharge(env, cknn.EcoChargeOptions{
			RadiusM: cfg.RadiusM, ReuseDistM: cfg.ReuseDistM,
		})
	}}
}

func ecoOnlyFactory() []methodFactory {
	fs := allMethodFactories()
	return []methodFactory{fs[0], fs[3]} // brute force (denominator) + EcoCharge
}

// repResult accumulates one repetition of one method.
type repResult struct {
	truth        cknn.Truth
	ftMillis     []float64
	queries      int
	hits, misses int
}

// runOnce executes one repetition: the sampled trips are evaluated by every
// factory's method, per-query latency is measured around Rank only, and the
// chosen chargers of each method are scored against ground truth under the
// segment's query. It returns one result per factory, in factory order.
func runOnce(sc *Scenario, cfg RunConfig, factories []methodFactory, rep int) []repResult {
	rng := rand.New(rand.NewSource(sc.Seed*1000 + int64(rep)))
	trips := sampleTrips(rng, sc.Trips, cfg.TripsPerRep)
	opts := cknn.TripOptions{
		K: cfg.K, SegmentLenM: cfg.SegmentLenM, RadiusM: cfg.RadiusM, Weights: cfg.Weights,
	}
	engine := cknn.Engine{Env: sc.Env}

	methods := make([]cknn.Method, len(factories))
	for i, f := range factories {
		methods[i] = f.build(sc.Env, cfg, sc.Seed*77+int64(rep))
	}
	results := make([]repResult, len(factories))
	picks := make([][]int64, len(factories))
	for _, trip := range trips {
		segs := trajectory.SegmentTrip(sc.Graph, trip, cfg.SegmentLenM)
		for _, m := range methods {
			m.Reset()
		}
		for _, seg := range segs {
			q := cknn.QueryForSegment(trip, seg, opts)
			for i, f := range factories {
				mq := q
				if f.query != nil {
					mq = f.query(q)
				}
				start := time.Now()
				table := methods[i].Rank(mq)
				elapsed := time.Since(start)
				results[i].ftMillis = append(results[i].ftMillis, float64(elapsed)/float64(time.Millisecond))
				results[i].queries++
				picks[i] = table.IDs()
			}
			tm := engine.TruthMaps(q)
			for i, ids := range picks {
				t, r := engine.TruthSum(q, tm, ids), &results[i].truth
				r.SC, r.L, r.A, r.D = r.SC+t.SC, r.L+t.L, r.A+t.A, r.D+t.D
			}
		}
	}
	for i, m := range methods {
		if eco, ok := m.(*cknn.EcoCharge); ok {
			results[i].hits, results[i].misses = eco.Stats()
		}
	}
	return results
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
// SC% (vs the first factory, which must be BruteForce), F_t, queries, cache
// counts and objective shares per factory, in factory order. Repetitions
// are the sweep cells: each owns its RNG seed and its method instances, and
// they run one at a time, because F_t is wall time around Rank and a timed
// repetition never shares the process with another. It stops before the
// next repetition once ctx is cancelled and returns ctx.Err().
func runSeries(ctx context.Context, sc *Scenario, cfg RunConfig, factories []methodFactory, label string) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	if len(sc.Trips) == 0 {
		return nil, fmt.Errorf("experiment: scenario %s has no trips", sc.Name)
	}
	if factories[0].name != "BruteForce" {
		return nil, fmt.Errorf("experiment: first factory must be BruteForce (got %s)", factories[0].name)
	}
	reps := make([][]repResult, cfg.Repetitions)
	for rep := range reps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		reps[rep] = runOnce(sc, cfg, factories, rep)
	}

	out := make([]Measurement, len(factories))
	for i, f := range factories {
		m := Measurement{Dataset: sc.Name, Method: f.name, Config: label}
		var scPct, ft []float64
		var l, a, d float64
		for _, rs := range reps {
			r := rs[i]
			if denom := rs[0].truth.SC; denom > 0 {
				scPct = append(scPct, r.truth.SC/denom*100)
			}
			ft = append(ft, stats.Mean(r.ftMillis))
			m.Queries += r.queries
			m.CacheHits += r.hits
			m.CacheMiss += r.misses
			l, a, d = l+r.truth.L, a+r.truth.A, d+r.truth.D
		}
		m.SCPercent = stats.Summarize(scPct)
		m.FtMillis = stats.Summarize(ft)
		if total := l + a + d; total > 0 {
			m.Shares = ObjectiveShares{L: l / total, A: a / total, D: d / total}
		}
		out[i] = m
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
		out = append(out, ms[1:]...) // brute force is the denominator
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
		out = append(out, ms[1:]...)
	}
	return out, nil
}
