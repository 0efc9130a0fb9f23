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

// AblationFunction names one distance function of the Fig. 9 ablation.
type AblationFunction struct {
	Name    string
	Weights cknn.Weights
}

// AblationFunctions returns the paper's four configurations: AWE (all
// weights equal — the EcoCharge default), OSC (only sustainable charging),
// OA (only availability) and ODC (only derouting cost).
func AblationFunctions() []AblationFunction {
	return []AblationFunction{
		{Name: "AWE", Weights: cknn.EqualWeights()},
		{Name: "OSC", Weights: cknn.OnlyL()},
		{Name: "OA", Weights: cknn.OnlyA()},
		{Name: "ODC", Weights: cknn.OnlyD()},
	}
}

// RunAblation executes the Fig. 9 series on one scenario: EcoCharge ranks
// with each ablated distance function, but every chosen set is *scored*
// under the equal-weight truth SC against the equal-weight brute-force
// optimum — isolating what the weight configuration costs. The achieved
// objective shares (the w1/w2/w3 percentages the figure annotates) are the
// fractions of the truth score mass contributed by each objective.
// Each repetition owns its RNG seed and method instances.
func RunAblation(ctx context.Context, sc *Scenario, cfg RunConfig) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	if len(sc.Trips) == 0 {
		return nil, fmt.Errorf("experiment: scenario %s has no trips", sc.Name)
	}
	engine := cknn.Engine{Env: sc.Env}
	eqW := cknn.EqualWeights()
	fns := AblationFunctions()

	type shareAcc struct{ l, a, d float64 }
	type repOut struct {
		truth   map[string]float64
		ftMS    map[string][]float64
		shares  map[string]*shareAcc
		queries map[string]int
		denom   float64
	}
	outs := make([]repOut, cfg.Repetitions)
	err := forEachCell(ctx, cfg.Repetitions, func(rep int) {
		rng := rand.New(rand.NewSource(sc.Seed*1000 + int64(rep)))
		trips := sampleTrips(rng, sc.Trips, cfg.TripsPerRep)

		bf := cknn.NewBruteForce(sc.Env)
		methods := make(map[string]cknn.Method, len(fns))
		o := repOut{
			truth:   make(map[string]float64),
			ftMS:    make(map[string][]float64),
			shares:  make(map[string]*shareAcc),
			queries: make(map[string]int),
		}
		for _, fn := range fns {
			methods[fn.Name] = cknn.NewEcoCharge(sc.Env, cknn.EcoChargeOptions{
				RadiusM: cfg.RadiusM, ReuseDistM: cfg.ReuseDistM,
			})
			o.shares[fn.Name] = &shareAcc{}
		}

		for _, trip := range trips {
			segs := trajectory.SegmentTrip(sc.Graph, trip, cfg.SegmentLenM)
			for _, m := range methods {
				m.Reset()
			}
			bf.Reset()
			for _, seg := range segs {
				baseQ := cknn.QueryForSegment(trip, seg, cknn.TripOptions{
					K: cfg.K, SegmentLenM: cfg.SegmentLenM, RadiusM: cfg.RadiusM, Weights: eqW,
				})
				tm := engine.TruthMaps(baseQ)
				// Denominator: brute force under equal weights.
				for _, e := range bf.Rank(baseQ).Entries {
					if v, ok := engine.TruthSC(baseQ, tm, e.Charger); ok {
						o.denom += v
					}
				}
				for _, fn := range fns {
					q := baseQ
					q.Weights = fn.Weights
					start := time.Now()
					table := methods[fn.Name].Rank(q)
					o.ftMS[fn.Name] = append(o.ftMS[fn.Name], float64(time.Since(start))/float64(time.Millisecond))
					o.queries[fn.Name]++
					acc := o.shares[fn.Name]
					for _, e := range table.Entries {
						l, a, dc, ok := engine.TruthComponents(baseQ, tm, e.Charger)
						if !ok {
							continue
						}
						// Scored under equal weights regardless of the
						// ranking function.
						o.truth[fn.Name] += (l + a + dc) / 3
						acc.l += l
						acc.a += a
						acc.d += dc
					}
				}
			}
		}
		outs[rep] = o
	})
	if err != nil {
		return nil, err
	}

	scPct := make(map[string][]float64)
	ft := make(map[string][]float64)
	shares := make(map[string]*shareAcc)
	queries := make(map[string]int)
	for _, fn := range fns {
		shares[fn.Name] = &shareAcc{}
	}
	for _, o := range outs {
		for _, fn := range fns {
			if o.denom > 0 {
				scPct[fn.Name] = append(scPct[fn.Name], o.truth[fn.Name]/o.denom*100)
			}
			ft[fn.Name] = append(ft[fn.Name], stats.Mean(o.ftMS[fn.Name]))
			queries[fn.Name] += o.queries[fn.Name]
			shares[fn.Name].l += o.shares[fn.Name].l
			shares[fn.Name].a += o.shares[fn.Name].a
			shares[fn.Name].d += o.shares[fn.Name].d
		}
	}

	out := make([]Measurement, 0, len(fns))
	for _, fn := range fns {
		acc := shares[fn.Name]
		total := acc.l + acc.a + acc.d
		m := Measurement{
			Dataset:   sc.Name,
			Method:    fn.Name,
			Config:    "ablation",
			SCPercent: stats.Summarize(scPct[fn.Name]),
			FtMillis:  stats.Summarize(ft[fn.Name]),
			Queries:   queries[fn.Name],
		}
		if total > 0 {
			m.Shares = ObjectiveShares{L: acc.l / total, A: acc.a / total, D: acc.d / total}
		}
		out = append(out, m)
	}
	return out, nil
}
