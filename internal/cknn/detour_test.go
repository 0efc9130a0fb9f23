package cknn

import (
	"math"
	"testing"
	"time"

	"ecocharge/internal/roadnet"
	"ecocharge/internal/trajectory"
)

func TestPlanDetour(t *testing.T) {
	env := testEnv(t)
	trips, err := trajectory.Generate(env.Graph, trajectory.GenConfig{
		N: 2, Seed: 23, MinTripKM: 6, MaxTripKM: 10, Start: queryTime, Window: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewEcoCharge(env, EcoChargeOptions{RadiusM: 10000})
	for _, trip := range trips {
		results := RunTrip(env, m, trip, TripOptions{K: 3, SegmentLenM: 3000, RadiusM: 10000})
		seg := results[0].Segment
		top, ok := results[0].Table.Top()
		if !ok {
			t.Fatal("empty table")
		}
		plan, err := PlanDetour(env, trip, seg, top)
		if err != nil {
			t.Fatalf("PlanDetour: %v", err)
		}
		if plan.Charger.ID != top.Charger.ID {
			t.Error("plan charger mismatch")
		}
		// Route legs connect anchor → charger → destination.
		if plan.ToCharger.Nodes[0] != seg.AnchorNode {
			t.Error("detour does not start at the anchor")
		}
		if plan.ToCharger.Nodes[len(plan.ToCharger.Nodes)-1] != top.Charger.Node {
			t.Error("detour does not reach the charger")
		}
		dest := trip.Path.Nodes[len(trip.Path.Nodes)-1]
		if plan.FromCharger.Nodes[len(plan.FromCharger.Nodes)-1] != dest {
			t.Error("continuation does not reach the destination")
		}
		// The extra-time interval is ordered and non-negative.
		if plan.ExtraSecondsMin < 0 || plan.ExtraSecondsMax < plan.ExtraSecondsMin {
			t.Errorf("extra time interval [%v, %v] invalid", plan.ExtraSecondsMin, plan.ExtraSecondsMax)
		}
		if plan.ArriveAt.Before(seg.ETA) {
			t.Error("arrival before the segment ETA")
		}
	}
}

func TestPlanDetourErrors(t *testing.T) {
	env := testEnv(t)
	trips, _ := trajectory.Generate(env.Graph, trajectory.GenConfig{
		N: 1, Seed: 3, MinTripKM: 4, MaxTripKM: 8, Start: queryTime, Window: time.Minute,
	})
	segs := trajectory.SegmentTrip(env.Graph, trips[0], 3000)
	if _, err := PlanDetour(env, trips[0], segs[0], Entry{}); err == nil {
		t.Fatal("nil charger accepted")
	}
}

// An empty route has no destination to continue to: an error, not an index
// out of range.
func TestPlanDetourEmptyRoute(t *testing.T) {
	env := testEnv(t)
	top := Entry{Charger: &env.Chargers.All()[0]}
	if _, err := PlanDetour(env, trajectory.Trip{Depart: queryTime}, trajectory.Segment{ETA: queryTime}, top); err == nil {
		t.Fatal("a trip without a route was planned")
	}
}

// routeWeight re-costs a route hop by hop; a hop no road covers has no price.
func TestRouteWeightRejectsMissingRoad(t *testing.T) {
	env := testEnv(t)
	p, ok := env.Graph.ShortestPath(0, roadnet.NodeID(env.Graph.NumNodes()-1), roadnet.DistanceWeight)
	if !ok || len(p.Nodes) < 3 {
		t.Fatalf("fixture route: %v %v", p.Nodes, ok)
	}
	if w, err := routeWeight(env.Graph, p.Nodes, roadnet.DistanceWeight); err != nil || math.Abs(w-p.Weight) > 1e-6 {
		t.Fatalf("routeWeight of a real route = %v, %v; its search said %v", w, err, p.Weight)
	}
	// The corners of the grid are not neighbours.
	gap := []roadnet.NodeID{p.Nodes[0], p.Nodes[len(p.Nodes)-1]}
	if w, err := routeWeight(env.Graph, gap, roadnet.DistanceWeight); err == nil {
		t.Fatalf("a hop without a road was priced at %v", w)
	}
}

// TestPlanDetourQuotesTheRankedETA: the detour's outbound leg and the exact
// derouting of the same segment's query both run the one kernel from the
// anchor under the same lower table, so the plan quotes, bit for bit, the
// lower travel bound the ranking read for the charger.
func TestPlanDetourQuotesTheRankedETA(t *testing.T) {
	env := testEnv(t)
	trips, err := trajectory.Generate(env.Graph, trajectory.GenConfig{
		N: 3, Seed: 23, MinTripKM: 6, MaxTripKM: 10, Start: queryTime, Window: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := TripOptions{K: 3, SegmentLenM: 3000, RadiusM: 10000}
	for _, trip := range trips {
		for _, res := range RunTrip(env, NewBruteForce(env), trip, opts) {
			top, ok := res.Table.Top()
			if !ok {
				t.Fatal("empty table")
			}
			plan, err := PlanDetour(env, trip, res.Segment, top)
			if err != nil {
				t.Fatalf("PlanDetour: %v", err)
			}
			d := env.deroutingMaps(QueryForSegment(trip, res.Segment, opts).normalized(), math.Inf(1), nil, exactBounds)
			travel, ok := d.TravelTo(top.Charger.Node)
			d.Release()
			if !ok || math.Float64bits(plan.ToCharger.Weight) != math.Float64bits(travel.Min) {
				t.Fatalf("trip %d segment %d: plan quotes %v s to charger %d, the ranking read %v (reached %v)",
					trip.ID, res.Segment.Index, plan.ToCharger.Weight, top.Charger.ID, travel.Min, ok)
			}
		}
	}
}
