package cknn_test

// Method-level differential suite for the batched derouting maps: every
// ranking method, run over real trips, must emit byte-identical Offering
// Tables whether the engine prices candidates through the batched
// target-aware expansions (production default) or the full-ball expansions
// they replaced (Env.FullDerouting oracle switch). reflect.DeepEqual over
// the full []SegmentResult catches any divergence — entry order, scores,
// components, ETAs — and tabletest pins the table invariants on top, so
// "equal but both wrong" cannot slip through. The maps-level suite
// (derouting_batch_test.go) proves the expansions equal at every node; this
// one proves no call site reads outside the target contract.

import (
	"reflect"
	"testing"

	"ecocharge/internal/cknn"
	"ecocharge/internal/cknn/tabletest"
	"ecocharge/internal/experiment"
	"ecocharge/internal/trajectory"
)

func TestBatchedDeroutingTripEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario builds are slow")
	}
	for _, p := range trajectory.Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			sc, err := experiment.BuildScenarioFromProfile(p, 0.0005, 7)
			if err != nil {
				t.Fatalf("BuildScenarioFromProfile: %v", err)
			}
			trips := sc.Trips
			if len(trips) > 2 {
				trips = trips[:2]
			}
			if len(trips) == 0 {
				t.Fatalf("profile %s produced no trips", p.Name)
			}
			opts := cknn.TripOptions{K: 3, SegmentLenM: 4000}

			methods := equivalenceMethods(sc.Env)
			// EcoCharge's exact-derouting configuration exercises the batched
			// four-expansion path the default (approx) configuration skips.
			methods = append(methods, struct {
				name  string
				build func() cknn.Method
			}{"EcoCharge-Exact", func() cknn.Method {
				return cknn.NewEcoCharge(sc.Env, cknn.EcoChargeOptions{ReuseDistM: 5000, ExactDerouting: true})
			}})

			for _, mt := range methods {
				mt := mt
				t.Run(mt.name, func(t *testing.T) {
					for _, trip := range trips {
						sc.Env.FullDerouting = true
						want := cknn.RunTrip(sc.Env, mt.build(), trip, opts)
						sc.Env.FullDerouting = false
						got := cknn.RunTrip(sc.Env, mt.build(), trip, opts)
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("trip %d: batched derouting results differ from full-ball\nfull:  %v\nbatch: %v",
								trip.ID, summarize(want), summarize(got))
						}
						for _, res := range got {
							tabletest.CheckOpts(t, res.Table, opts.K, mt.name,
								tabletest.Options{SkipScores: mt.name == "Random"})
						}
					}
				})
			}
		})
	}
}
