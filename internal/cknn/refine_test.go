package cknn

import (
	"slices"
	"testing"
	"time"

	"ecocharge/internal/geo"
	"ecocharge/internal/trajectory"
)

func refineTrip(t *testing.T, env *Env) trajectory.Trip {
	t.Helper()
	trips, err := trajectory.Generate(env.Graph, trajectory.GenConfig{
		N: 1, Seed: 17, MinTripKM: 7, MaxTripKM: 12, Start: queryTime, Window: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return trips[0]
}

func TestRefineSplitPointsSharpens(t *testing.T) {
	env := testEnv(t)
	m := NewEcoCharge(env, EcoChargeOptions{RadiusM: 10000, ReuseDistM: 1})
	opts := TripOptions{K: 3, SegmentLenM: 2500, RadiusM: 10000}
	trip := refineTrip(t, env)

	coarse := SplitList(env, m, trip, opts)
	refined := RefineSplitPoints(env, m, trip, opts, RefineOptions{})
	if len(refined) != len(coarse) {
		t.Fatalf("refinement changed split count: %d vs %d", len(refined), len(coarse))
	}
	if len(refined) < 2 {
		t.Skip("trip has a single result set; nothing to refine")
	}
	// Refined positions must lie between the coarse bracketing anchors and
	// keep the NN sets.
	segs := trajectory.SegmentTrip(env.Graph, trip, opts.SegmentLenM)
	for i := 1; i < len(refined); i++ {
		if !slices.Equal(refined[i].NN, coarse[i].NN) {
			t.Fatalf("refinement changed NN set at %d", i)
		}
		lo := segs[coarse[i-1].SegmentIndex].Anchor
		hi := segs[coarse[i].SegmentIndex].Anchor
		span := geo.Distance(lo, hi)
		dLo := geo.Distance(lo, refined[i].P)
		dHi := geo.Distance(hi, refined[i].P)
		if dLo > span+500 || dHi > span+500 {
			t.Errorf("refined point %d escaped its bracket: span=%.0f dLo=%.0f dHi=%.0f", i, span, dLo, dHi)
		}
		// And it should be at least as precise as the coarse anchor (not
		// farther from the bracket interior).
		if dLo+dHi > 2*span+500 {
			t.Errorf("refined point %d inconsistent", i)
		}
	}
	// ETAs stay ordered.
	for i := 1; i < len(refined); i++ {
		if refined[i].ETA.Before(refined[i-1].ETA) {
			t.Fatalf("refined ETAs out of order at %d", i)
		}
	}
}

func TestRefineSinglePointList(t *testing.T) {
	env := testEnv(t)
	m := NewBruteForce(env)
	// A one-segment trip yields a single split point; refinement is a no-op.
	trips, err := trajectory.Generate(env.Graph, trajectory.GenConfig{
		N: 1, Seed: 3, MinTripKM: 1, MaxTripKM: 3, Start: queryTime, Window: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := TripOptions{K: 3, SegmentLenM: 1e7, RadiusM: 10000}
	got := RefineSplitPoints(env, m, trips[0], opts, RefineOptions{})
	if len(got) != 1 {
		t.Fatalf("expected a single split point, got %d", len(got))
	}
}

func TestTransitionDistance(t *testing.T) {
	if got := TransitionDistanceM(nil); got != nil {
		t.Errorf("nil input: %v", got)
	}
	pts := []SplitPoint{
		{P: geo.Point{Lat: 53.0, Lon: 8.0}},
		{P: geo.Point{Lat: 53.0, Lon: 8.1}},
		{P: geo.Point{Lat: 53.1, Lon: 8.1}},
	}
	ds := TransitionDistanceM(pts)
	if len(ds) != 2 {
		t.Fatalf("got %d distances", len(ds))
	}
	for _, d := range ds {
		if d <= 0 {
			t.Errorf("non-positive transition distance %v", d)
		}
	}
}
