package experiment

import (
	"context"
	"fmt"
	"time"

	"ecocharge/internal/cknn"
)

// RunHorizonSweep measures what the "estimated" in Estimated Components
// costs: the same EcoCharge queries are answered with forecasts issued
// progressively earlier (larger horizons mean wider L/A/D intervals), and
// each answer is scored against ground truth and against a brute-force
// oracle that plans with fresh forecasts. As the horizon grows the
// intervals widen, their order tells the chargers apart less well, and SC%
// decays — quantifying the paper's premise that forecast quality bounds
// recommendation quality. Each horizon is one series of its own.
func RunHorizonSweep(ctx context.Context, sc *Scenario, cfg RunConfig, horizons []time.Duration) ([]Measurement, error) {
	if len(horizons) == 0 {
		horizons = []time.Duration{0, 2 * time.Hour, 6 * time.Hour, 24 * time.Hour}
	}
	var out []Measurement
	for _, h := range horizons {
		// EcoCharge plans with forecasts issued h before departure (the
		// segment's query is issued at departure); the oracle plans with
		// fresh forecasts. The gap is the price of planning ahead.
		fs := ecoOnlyFactory()
		fs[1].query = func(q cknn.Query) cknn.Query {
			q.Now = q.Now.Add(-h)
			return q
		}
		ms, err := runSeries(ctx, sc, cfg, fs, fmt.Sprintf("horizon=%s", h))
		if err != nil {
			return nil, err
		}
		out = append(out, ms[1:]...)
	}
	return out, nil
}
