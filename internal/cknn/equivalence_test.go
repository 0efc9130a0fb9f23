package cknn_test

// Trip evaluation on every dataset profile and every method: each Offering
// Table of a trip holds the table invariants, and the split list of a fresh
// run of the same trip is the change list of exactly those tables.

import (
	"slices"
	"testing"

	"ecocharge/internal/cknn"
	"ecocharge/internal/cknn/tabletest"
	"ecocharge/internal/experiment"
	"ecocharge/internal/trajectory"
)

// equivalenceMethods enumerates every ranking method under test with a
// constructor returning a fresh instance — fresh per run, because the
// EcoCharge cache chain and the Random stream carry state across Rank calls
// and must start identical on both sides of a comparison.
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

func TestTripTablesEveryProfile(t *testing.T) {
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
			for _, mt := range equivalenceMethods(sc.Env) {
				mt := mt
				t.Run(mt.name, func(t *testing.T) {
					for _, trip := range trips {
						results := cknn.RunTrip(sc.Env, mt.build(), trip, opts)
						for _, res := range results {
							tabletest.CheckOpts(t, res.Table, opts.K, mt.name,
								tabletest.Options{SkipScores: mt.name == "Random"})
						}
						// A fresh instance walks the same trip: its split
						// list opens at segment 0, advances exactly where the
						// tables above change their charger set, and names
						// that set in between.
						sl := cknn.SplitList(sc.Env, mt.build(), trip, opts)
						at := -1
						for i, res := range results {
							ids := res.Table.IDs()
							if at < 0 || !slices.Equal(sl[at].NN, ids) {
								at++
								if at == len(sl) || sl[at].SegmentIndex != res.Segment.Index || !slices.Equal(sl[at].NN, ids) {
									t.Fatalf("trip %d segment %d: tables %v, split list %v",
										trip.ID, i, summarize(results), splitIDs(sl))
								}
							}
						}
						if at != len(sl)-1 {
							t.Fatalf("trip %d: split list %v has points the tables %v do not change at",
								trip.ID, splitIDs(sl), summarize(results))
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
