package interval_test

import (
	"fmt"

	"ecocharge/internal/interval"
)

// The Sustainability Score of eqs. 4–5: three interval-valued Estimated
// Components combined with equal weights.
func ExampleWeightedSum() {
	l := interval.New(0.6, 0.9) // sustainable charging level
	a := interval.New(0.3, 0.5) // availability
	d := interval.New(0.1, 0.4) // derouting cost (lower is better)
	w := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	sc := interval.WeightedSum([]interval.I{l, a, d.Complement()}, w)
	fmt.Println(sc)
	// Output: [0.5, 0.7667]
}
