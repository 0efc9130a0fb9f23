// Commute with derouting: the paper's scheduled-trip scenario (Fig. 1). A
// parent drives a fixed 20 km route; EcoCharge continuously recomputes the
// Offering Table along the trip using the dynamic cache, and the example
// shows how the recommendation evolves per path segment, where the split
// points fall, and what the detour to the final choice costs.
package main

import (
	"fmt"
	"log"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/ec"
	"ecocharge/internal/geo"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/trajectory"
)

func main() {
	graph := roadnet.GenerateUrban(roadnet.UrbanConfig{
		Origin:  geo.Point{Lat: 53.05, Lon: 8.05},
		WidthKM: 25, HeightKM: 20, SpacingM: 500,
		RemoveFrac: 0.08, JitterFrac: 0.25, ArterialEach: 5, Seed: 31,
	})
	solar := ec.NewSolarModel(9)
	avail := ec.NewAvailabilityModel(10)
	traffic := ec.NewTrafficModel(11)
	chargers, err := charger.Generate(graph, avail, charger.GenConfig{N: 300, Seed: 12})
	if err != nil {
		log.Fatal(err)
	}
	env, err := cknn.NewEnv(graph, chargers, solar, avail, traffic, cknn.EnvConfig{RadiusM: 15000})
	if err != nil {
		log.Fatal(err)
	}

	// One scheduled ~20 km trip departing at 15:30 (school pickup).
	depart := time.Date(2024, 6, 18, 15, 30, 0, 0, time.UTC)
	trips, err := trajectory.Generate(graph, trajectory.GenConfig{
		N: 1, Seed: 33, MinTripKM: 18, MaxTripKM: 24, Start: depart, Window: time.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}
	trip := trips[0]
	fmt.Printf("scheduled trip: %.1f km departing %s\n\n", trip.Path.Weight/1000, trip.Depart.Format("15:04"))

	method := cknn.NewEcoCharge(env, cknn.EcoChargeOptions{RadiusM: 15000, ReuseDistM: 5000})
	opts := cknn.TripOptions{K: 3, SegmentLenM: 4000, RadiusM: 15000}
	results := cknn.RunTrip(env, method, trip, opts)

	fmt.Println("segment  ETA    top charger   SC(mid)  derout(min)  source")
	for _, r := range results {
		if len(r.Table.Entries) == 0 {
			continue
		}
		top := r.Table.Entries[0]
		src := "computed"
		if r.Table.Adapted {
			src = "cache"
		}
		fmt.Printf("   %2d    %s  charger %-4d  %.3f    %5.1f       %s\n",
			r.Segment.Index, r.Segment.ETA.Format("15:04"),
			top.Charger.ID, top.SC.Mid(), top.Comp.DeroutSecM/60, src)
	}

	// Where does the recommended kNN set change along the route?
	sl := cknn.SplitList(results)
	fmt.Printf("\n%d split points along the trip:\n", len(sl))
	for _, sp := range sl {
		fmt.Printf("  segment %d (ETA %s): top-3 becomes %v\n", sp.SegmentIndex, sp.ETA.Format("15:04"), sp.NN)
	}

	// Commit to the final segment's best charger and quantify the detour.
	last := results[len(results)-1]
	if len(last.Table.Entries) == 0 {
		log.Fatal("no charger recommended on the final segment")
	}
	top := last.Table.Entries[0]
	lower, upper := traffic.ClassWeightTables(last.Segment.ETA, trip.Depart)
	toCharger, ok1 := graph.ShortestPath(last.Segment.AnchorNode, top.Charger.Node, lower)
	backHome, ok2 := graph.ShortestPath(top.Charger.Node, trip.Path.Nodes[len(trip.Path.Nodes)-1], upper)
	if !ok1 || !ok2 {
		log.Fatal("recommended charger unreachable")
	}
	fmt.Printf("\ncommitting to charger %d (%s, %.1f kW panels):\n",
		top.Charger.ID, top.Charger.Rate, top.Charger.PanelKW)
	fmt.Printf("  detour: %.1f min to the charger (optimistic), %.1f min back to the destination (pessimistic)\n",
		toCharger.Weight/60, backHome.Weight/60)
	fmt.Printf("  expected clean power on arrival: %s kW\n",
		solar.Forecast(top.Charger.Site(), top.Comp.ETA, trip.Depart))
}
