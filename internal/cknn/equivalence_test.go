package cknn_test

// Differential equivalence harness: the sequential engine (Workers=1) is
// the testing oracle, and every parallel configuration must reproduce its
// Offering Tables and split lists byte-for-byte on every dataset profile
// and every method. reflect.DeepEqual over the full []SegmentResult catches
// any divergence — entry order, scores, components, anchors, timestamps.

import (
	"reflect"
	"testing"

	"ecocharge/internal/cknn"
	"ecocharge/internal/cknn/tabletest"
	"ecocharge/internal/experiment"
	"ecocharge/internal/trajectory"
)

// equivalenceMethods enumerates every ranking method under test with a
// constructor returning a fresh instance — fresh per run, because the
// EcoCharge cache chain and the Random stream carry state across Rank calls
// and must start identical on both sides of the comparison.
func equivalenceMethods(env *cknn.Env) []struct {
	name  string
	build func() cknn.Method
} {
	return []struct {
		name  string
		build func() cknn.Method
	}{
		{"BruteForce", func() cknn.Method { return cknn.NewBruteForce(env) }},
		{"Index-Quadtree", func() cknn.Method { return cknn.NewIndexQuadtree(env) }},
		{"Random", func() cknn.Method { return cknn.NewRandom(env, 21) }},
		{"EcoCharge", func() cknn.Method {
			return cknn.NewEcoCharge(env, cknn.EcoChargeOptions{ReuseDistM: 5000})
		}},
	}
}

func TestParallelTripEquivalence(t *testing.T) {
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
			seq := cknn.TripOptions{K: 3, SegmentLenM: 4000}
			seq.Workers = 1
			par := seq
			par.Workers = 4
			for _, mt := range equivalenceMethods(sc.Env) {
				mt := mt
				t.Run(mt.name, func(t *testing.T) {
					for _, trip := range trips {
						want := cknn.RunTrip(sc.Env, mt.build(), trip, seq)
						got := cknn.RunTrip(sc.Env, mt.build(), trip, par)
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("trip %d: Workers=4 results differ from Workers=1\nseq: %v\npar: %v",
								trip.ID, summarize(want), summarize(got))
						}
						// Equivalence alone would accept two identically
						// malformed tables; pin the invariants too.
						for _, res := range want {
							tabletest.CheckOpts(t, res.Table, seq.K, mt.name,
								tabletest.Options{SkipScores: mt.name == "Random"})
						}
						wantSL := cknn.SplitList(sc.Env, mt.build(), trip, seq)
						gotSL := cknn.SplitList(sc.Env, mt.build(), trip, par)
						if !reflect.DeepEqual(wantSL, gotSL) {
							t.Fatalf("trip %d: split lists differ: seq %v vs par %v",
								trip.ID, splitIDs(wantSL), splitIDs(gotSL))
						}
					}
				})
			}
		})
	}
}

// summarize renders per-segment charger IDs for failure messages.
func summarize(rs []cknn.SegmentResult) [][]int64 {
	out := make([][]int64, len(rs))
	for i, r := range rs {
		out[i] = r.Table.IDs()
	}
	return out
}

func splitIDs(sl []cknn.SplitPoint) [][]int64 {
	out := make([][]int64, len(sl))
	for i, s := range sl {
		out[i] = s.NN
	}
	return out
}
