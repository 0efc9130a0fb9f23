package experiment

import (
	"context"

	"ecocharge/internal/cknn"
)

// RunDesignAblation measures the contribution of EcoCharge's own design
// choices (beyond the paper's weight ablation): the dynamic cache, the
// cheap cache-hit adaptation, and the single-expansion derouting
// approximation. Each variant runs the same workload as Fig. 6 and is
// scored against the same brute-force optimum.
//
// Variants:
//
//	EcoCharge           — the full method (cache + adaptation + approx)
//	Eco-NoCache         — Q ≈ 0: every query recomputes (isolates caching)
//	Eco-ExactIntervals  — exact four-expansion derouting (isolates the
//	                      mid-traffic approximation)
func RunDesignAblation(ctx context.Context, sc *Scenario, cfg RunConfig) ([]Measurement, error) {
	return runSeries(ctx, sc, cfg, designFactories(), "design")
}

// designFactories are the ablation's variants behind the brute-force
// denominator.
func designFactories() []methodFactory {
	return []methodFactory{
		{"BruteForce", func(env *cknn.Env, _ RunConfig, _ int64) cknn.Method {
			return cknn.NewBruteForce(env)
		}},
		{"EcoCharge", func(env *cknn.Env, c RunConfig, _ int64) cknn.Method {
			return cknn.NewEcoCharge(env, cknn.EcoChargeOptions{
				RadiusM: c.RadiusM, ReuseDistM: c.ReuseDistM,
			})
		}},
		{"Eco-NoCache", func(env *cknn.Env, c RunConfig, _ int64) cknn.Method {
			return cknn.NewEcoCharge(env, cknn.EcoChargeOptions{
				RadiusM: c.RadiusM, ReuseDistM: 1, // effectively never reuse
			})
		}},
		{"Eco-ExactIntervals", func(env *cknn.Env, c RunConfig, _ int64) cknn.Method {
			return cknn.NewEcoCharge(env, cknn.EcoChargeOptions{
				RadiusM: c.RadiusM, ReuseDistM: c.ReuseDistM, ExactDerouting: true,
			})
		}},
	}
}
