package cknn

import (
	"fmt"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/trajectory"
)

// DetourPlan is the concrete route change of committing to an Offering
// Table entry: the paper's client "could change the initial route to
// accommodate a visit to an offering charging station … with the objective
// of finding a more efficient overall route (current location to charger,
// and charger to destination)" (§IV.A).
type DetourPlan struct {
	Charger *charger.Charger
	// ToCharger is the route from the commitment point to the charger
	// under optimistic traffic; FromCharger the continuation to the trip's
	// destination under pessimistic traffic (the conservative planning
	// bound).
	ToCharger   roadnet.Path
	FromCharger roadnet.Path
	// ExtraSeconds is the interval of extra travel time versus staying on
	// the original route from the commitment point.
	ExtraSecondsMin float64
	ExtraSecondsMax float64
	// ArriveAt is the estimated arrival at the charger.
	ArriveAt time.Time
}

// PlanDetour builds the route change for committing to entry at the given
// trip segment. The four legs run on the one road kernel under the class
// tables a ranking of the same segment searches with, so ToCharger.Weight is
// the lower travel bound that ranking read for the charger. It returns an
// error when the trip has no route, or the charger or the destination is
// unreachable from the commitment point.
func PlanDetour(env *Env, trip trajectory.Trip, seg trajectory.Segment, entry Entry) (DetourPlan, error) {
	if entry.Charger == nil {
		return DetourPlan{}, fmt.Errorf("cknn: entry has no charger")
	}
	if len(trip.Path.Nodes) == 0 {
		return DetourPlan{}, fmt.Errorf("cknn: trip has no route")
	}
	dest := trip.Path.Nodes[len(trip.Path.Nodes)-1]
	lower, upper := env.Traffic.ClassWeightTables(seg.ETA, trip.Depart)

	toCharger, ok := env.Graph.ShortestPath(seg.AnchorNode, entry.Charger.Node, lower)
	if !ok {
		return DetourPlan{}, fmt.Errorf("cknn: charger %d unreachable from segment %d", entry.Charger.ID, seg.Index)
	}
	fromCharger, ok := env.Graph.ShortestPath(entry.Charger.Node, dest, upper)
	if !ok {
		return DetourPlan{}, fmt.Errorf("cknn: destination unreachable from charger %d", entry.Charger.ID)
	}
	// Baseline: staying on the route from the anchor to the destination.
	baseLo, okLo := env.Graph.ShortestPath(seg.AnchorNode, dest, lower)
	baseHi, okHi := env.Graph.ShortestPath(seg.AnchorNode, dest, upper)
	if !okLo || !okHi {
		return DetourPlan{}, fmt.Errorf("cknn: destination unreachable from segment %d", seg.Index)
	}

	toLo := toCharger.Weight
	toHi, err := routeWeight(env.Graph, toCharger.Nodes, upper)
	if err != nil {
		return DetourPlan{}, err
	}
	fromLo, err := routeWeight(env.Graph, fromCharger.Nodes, lower)
	if err != nil {
		return DetourPlan{}, err
	}
	fromHi := fromCharger.Weight

	extraMin := toLo + fromLo - baseHi.Weight
	if extraMin < 0 {
		extraMin = 0
	}
	extraMax := toHi + fromHi - baseLo.Weight
	if extraMax < extraMin {
		extraMax = extraMin
	}
	return DetourPlan{
		Charger:         entry.Charger,
		ToCharger:       toCharger,
		FromCharger:     fromCharger,
		ExtraSecondsMin: extraMin,
		ExtraSecondsMax: extraMax,
		ArriveAt:        seg.ETA.Add(secondsDur(toLo)),
	}, nil
}

// routeWeight prices a fixed node sequence under a class table (the route
// was chosen under another one; this re-costs it). A hop with no arc between
// its two nodes is an error, not a free ride.
func routeWeight(g *roadnet.Graph, nodes []roadnet.NodeID, cw roadnet.ClassWeights) (float64, error) {
	var total float64
	for i := 1; i < len(nodes); i++ {
		found := false
		g.OutEdges(nodes[i-1], func(e roadnet.Edge) {
			if e.To == nodes[i] && !found {
				total += cw.CostOf(e)
				found = true
			}
		})
		if !found {
			return 0, fmt.Errorf("cknn: route has no road from node %d to node %d", nodes[i-1], nodes[i])
		}
	}
	return total, nil
}
