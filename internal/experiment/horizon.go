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

// RunHorizonSweep measures what the "estimated" in Estimated Components
// costs: the same EcoCharge queries are answered with forecasts issued
// progressively earlier (larger horizons mean wider L/A/D intervals), and
// each answer is scored against ground truth and against a brute-force
// oracle that also plans at the same horizon. As the horizon grows the
// intervals widen, the eq. 6 intersection gets less informative, and SC%
// decays — quantifying the paper's premise that forecast quality bounds
// recommendation quality.
func RunHorizonSweep(ctx context.Context, sc *Scenario, cfg RunConfig, horizons []time.Duration) ([]Measurement, error) {
	cfg = cfg.withDefaults()
	if len(sc.Trips) == 0 {
		return nil, fmt.Errorf("experiment: scenario %s has no trips", sc.Name)
	}
	if len(horizons) == 0 {
		horizons = []time.Duration{0, 2 * time.Hour, 6 * time.Hour, 24 * time.Hour}
	}
	engine := cknn.Engine{Env: sc.Env}

	var out []Measurement
	for _, h := range horizons {
		type repOut struct {
			truthSum, denom float64
			ftMS            []float64
			queries         int
		}
		outs := make([]repOut, cfg.Repetitions)
		err := forEachCell(ctx, cfg.Repetitions, func(rep int) {
			rng := rand.New(rand.NewSource(sc.Seed*1000 + int64(rep)))
			trips := sampleTrips(rng, sc.Trips, cfg.TripsPerRep)
			method := cknn.NewEcoCharge(sc.Env, cknn.EcoChargeOptions{
				RadiusM: cfg.RadiusM, ReuseDistM: cfg.ReuseDistM,
			})
			oracle := cknn.NewBruteForce(sc.Env)
			var o repOut
			for _, trip := range trips {
				method.Reset()
				segs := trajectory.SegmentTrip(sc.Graph, trip, cfg.SegmentLenM)
				for _, seg := range segs {
					q := cknn.QueryForSegment(trip, seg, cknn.TripOptions{
						K: cfg.K, SegmentLenM: cfg.SegmentLenM, RadiusM: cfg.RadiusM, Weights: cfg.Weights,
					})
					// EcoCharge plans with forecasts issued h before
					// departure (wider intervals); the oracle plans with
					// fresh forecasts. The gap is the price of planning
					// ahead.
					qOld := q
					qOld.Now = trip.Depart.Add(-h)
					start := time.Now()
					table := method.Rank(qOld)
					o.ftMS = append(o.ftMS, float64(time.Since(start))/float64(time.Millisecond))
					o.queries++
					tm := engine.TruthMaps(q)
					for _, e := range table.Entries {
						if v, ok := engine.TruthSC(q, tm, e.Charger); ok {
							o.truthSum += v
						}
					}
					for _, e := range oracle.Rank(q).Entries {
						if v, ok := engine.TruthSC(q, tm, e.Charger); ok {
							o.denom += v
						}
					}
				}
			}
			outs[rep] = o
		})
		if err != nil {
			return nil, err
		}
		scPct := make([]float64, 0, cfg.Repetitions)
		ft := make([]float64, 0, cfg.Repetitions)
		queries := 0
		for _, o := range outs {
			if o.denom > 0 {
				scPct = append(scPct, o.truthSum/o.denom*100)
			}
			ft = append(ft, stats.Mean(o.ftMS))
			queries += o.queries
		}
		out = append(out, Measurement{
			Dataset:   sc.Name,
			Method:    "EcoCharge",
			Config:    fmt.Sprintf("horizon=%s", h),
			SCPercent: stats.Summarize(scPct),
			FtMillis:  stats.Summarize(ft),
			Queries:   queries,
		})
	}
	return out, nil
}
