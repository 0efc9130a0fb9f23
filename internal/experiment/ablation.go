package experiment

import (
	"context"

	"ecocharge/internal/cknn"
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
func RunAblation(ctx context.Context, sc *Scenario, cfg RunConfig) ([]Measurement, error) {
	fs := []methodFactory{allMethodFactories()[0]}
	for _, fn := range AblationFunctions() {
		f := ecoFactory(fn.Name)
		f.query = func(q cknn.Query) cknn.Query {
			q.Weights = fn.Weights
			return q
		}
		fs = append(fs, f)
	}
	cfg.Weights = cknn.EqualWeights() // the scoring weights, whatever the caller passed
	ms, err := runSeries(ctx, sc, cfg, fs, "ablation")
	if err != nil {
		return nil, err
	}
	return ms[1:], nil
}
