package cknn_test

// Property-based harness over RunTrip: testing/quick drives random trips,
// integer weight mixes and fault rates through the EcoCharge method and
// asserts every emitted Offering Table through the shared tabletest
// invariants. A metamorphic companion check rides along: scaling all three
// weights by a common positive factor must not change the emitted tables,
// because the score only ever sees normalized weights. Scale factors are
// powers of two so (c·w)/(c·s) is bit-identical to w/s and the comparison
// needs no tolerance.

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ecocharge/internal/cknn"
	"ecocharge/internal/cknn/tabletest"
)

func TestRunTripPropertyInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario builds are slow")
	}
	sc := chaosScenario(t)
	freshEco := func(env *cknn.Env) cknn.Method {
		return cknn.NewEcoCharge(env, cknn.EcoChargeOptions{ReuseDistM: 5000})
	}

	prop := func(tripSel, wl, wa, wd, rateSel uint8) bool {
		trip := sc.Trips[int(tripSel)%len(sc.Trips)]
		rate := []float64{0, 0.1, 0.3}[int(rateSel)%3]
		env := sc.Env
		if rate > 0 {
			env = faultedEnv(sc.Env, rate, int64(rateSel)+1)
		}
		// Small integer weights cover the mix space while every power-of-two
		// multiple of them stays exactly representable.
		w := cknn.Weights{
			L: float64(1 + wl%8),
			A: float64(1 + wa%8),
			D: float64(1 + wd%8),
		}
		opts := cknn.TripOptions{K: 3, SegmentLenM: 4000, Weights: w}

		base := cknn.RunTrip(env, freshEco(env), trip, opts)
		for i, res := range base {
			if err := tabletest.Err(res.Table, opts.K, tabletest.Options{}); err != nil {
				t.Logf("trip %d seg %d (weights %+v, rate %g): %v", trip.ID, i, w, rate, err)
				return false
			}
		}

		// Metamorphic: common scaling of the weight vector is invisible.
		for _, c := range []float64{2, 0.25, 16} {
			scaled := opts
			scaled.Weights = cknn.Weights{L: c * w.L, A: c * w.A, D: c * w.D}
			got := cknn.RunTrip(env, freshEco(env), trip, scaled)
			if !reflect.DeepEqual(base, got) {
				t.Logf("trip %d: scaling weights %+v by %g changed the tables: %v vs %v",
					trip.ID, w, c, summarize(base), summarize(got))
				return false
			}
		}
		return true
	}

	cfg := &quick.Config{
		MaxCount: 6,
		Rand:     rand.New(rand.NewSource(11)), // deterministic case stream
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatalf("property violated: %v", err)
	}
}
