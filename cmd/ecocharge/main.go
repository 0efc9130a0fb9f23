// Command ecocharge runs the EcoCharge framework over one scheduled trip of
// a dataset scenario and prints the Offering Table of every path segment,
// followed by the CkNN-EC split list — the closest terminal equivalent of
// the mobile GUI of the paper's Fig. 5.
//
// Example:
//
//	ecocharge -dataset Oldenburg -trip 2 -k 3 -r 50 -q 5
package main

import (
	"flag"
	"fmt"
	"os"

	"ecocharge/internal/cknn"
	"ecocharge/internal/experiment"
)

func main() {
	var (
		dataset = flag.String("dataset", "Oldenburg", "dataset profile: Oldenburg, California, T-drive, Geolife")
		scale   = flag.Float64("scale", 0.005, "trip-count scale relative to the paper's full dataset")
		seed    = flag.Int64("seed", 42, "scenario seed")
		tripIdx = flag.Int("trip", 0, "index of the trip to evaluate")
		k       = flag.Int("k", 3, "chargers per Offering Table")
		radius  = flag.Float64("r", 50, "search radius R in km")
		reuse   = flag.Float64("q", 5, "cache reuse distance Q in km")
		segLen  = flag.Float64("seg", 4, "trip segment length in km")
		wL      = flag.Float64("wl", 1, "weight of sustainable charging level L")
		wA      = flag.Float64("wa", 1, "weight of availability A")
		wD      = flag.Float64("wd", 1, "weight of derouting cost D")
	)
	flag.Parse()

	if err := run(*dataset, *scale, *seed, *tripIdx, *k, *radius, *reuse, *segLen, cknn.Weights{L: *wL, A: *wA, D: *wD}); err != nil {
		fmt.Fprintln(os.Stderr, "ecocharge:", err)
		os.Exit(1)
	}
}

func run(dataset string, scale float64, seed int64, tripIdx, k int, radiusKM, reuseKM, segKM float64, w cknn.Weights) error {
	if err := w.Validate(); err != nil {
		return err
	}
	sc, err := experiment.BuildScenario(dataset, scale, seed)
	if err != nil {
		return err
	}
	if tripIdx < 0 || tripIdx >= len(sc.Trips) {
		return fmt.Errorf("trip index %d out of range (have %d trips)", tripIdx, len(sc.Trips))
	}
	trip := sc.Trips[tripIdx]
	fmt.Printf("dataset %s: %d nodes, %d edges, %d chargers, %d trips\n",
		sc.Name, sc.Graph.NumNodes(), sc.Graph.NumEdges(), sc.Env.Chargers.Len(), len(sc.Trips))
	fmt.Printf("trip %d: %.1f km, departs %s\n\n",
		trip.ID, trip.Path.Weight/1000, trip.Depart.Format("15:04"))

	method := cknn.NewEcoCharge(sc.Env, cknn.EcoChargeOptions{
		RadiusM:    radiusKM * 1000,
		ReuseDistM: reuseKM * 1000,
	})
	opts := cknn.TripOptions{K: k, SegmentLenM: segKM * 1000, RadiusM: radiusKM * 1000, Weights: w}
	results := cknn.RunTrip(sc.Env, method, trip, opts)

	for _, r := range results {
		src := "computed"
		if r.Table.Adapted {
			src = "adapted from cache"
		}
		fmt.Printf("segment %d (%.1f km, ETA %s) — Offering Table (%s):\n",
			r.Segment.Index, r.Segment.LengthM/1000, r.Segment.ETA.Format("15:04"), src)
		for rank, e := range r.Table.Entries {
			fmt.Printf("  %d. charger %-4d %-9s SC=%s  L=%s A=%s D=%s  ETA %s  derout %.1f min\n",
				rank+1, e.Charger.ID, e.Charger.Rate,
				e.SC, e.Comp.L, e.Comp.A, e.Comp.D,
				e.Comp.ETA.Format("15:04"), e.Comp.DeroutSecM/60)
		}
		fmt.Println()
	}

	sl := cknn.RefineSplitPoints(sc.Env, method, trip, opts, cknn.RefineOptions{})
	fmt.Printf("split list (%d split points, bisection-refined):\n", len(sl))
	for _, sp := range sl {
		fmt.Printf("  from %s (segment %d, ETA %s): NN = %v\n",
			sp.P, sp.SegmentIndex, sp.ETA.Format("15:04"), sp.NN)
	}

	// Commit to the last segment's top charger and show the route change.
	last := results[len(results)-1]
	if top, ok := last.Table.Top(); ok {
		plan, err := cknn.PlanDetour(sc.Env, trip, last.Segment, top)
		if err != nil {
			return fmt.Errorf("planning detour: %w", err)
		}
		fmt.Printf("\ncommitting to charger %d (%s): %.1f km detour leg, arrive %s, extra travel %.1f–%.1f min\n",
			plan.Charger.ID, plan.Charger.Rate,
			sc.Graph.LengthMeters(plan.ToCharger)/1000,
			plan.ArriveAt.Format("15:04"),
			plan.ExtraSecondsMin/60, plan.ExtraSecondsMax/60)
	}

	hits, misses := method.Stats()
	fmt.Printf("cache: %d hits, %d misses\n", hits, misses)
	return nil
}
