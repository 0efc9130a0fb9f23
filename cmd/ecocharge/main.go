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
	"bytes"
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

	var out bytes.Buffer
	err := run(&out, *dataset, *scale, *seed, *tripIdx, *k, *radius, *reuse, *segLen, cknn.Weights{L: *wL, A: *wA, D: *wD})
	fmt.Print(out.String())
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecocharge:", err)
		os.Exit(1)
	}
}

func run(out *bytes.Buffer, dataset string, scale float64, seed int64, tripIdx, k int, radiusKM, reuseKM, segKM float64, w cknn.Weights) error {
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
	fmt.Fprintf(out, "dataset %s: %d nodes, %d edges, %d chargers, %d trips\n",
		sc.Name, sc.Graph.NumNodes(), sc.Graph.NumEdges(), sc.Env.Chargers.Len(), len(sc.Trips))
	fmt.Fprintf(out, "trip %d: %.1f km, departs %s\n\n",
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
		fmt.Fprintf(out, "segment %d (%.1f km, ETA %s) — Offering Table (%s):\n",
			r.Segment.Index, r.Segment.LengthM/1000, r.Segment.ETA.Format("15:04"), src)
		for rank, e := range r.Table.Entries {
			fmt.Fprintf(out, "  %d. charger %-4d %-9s SC=%s  L=%s A=%s D=%s  ETA %s  derout %.1f min\n",
				rank+1, e.Charger.ID, e.Charger.Rate,
				e.SC, e.Comp.L, e.Comp.A, e.Comp.D,
				e.Comp.ETA.Format("15:04"), e.Comp.DeroutSecM/60)
		}
		fmt.Fprintln(out)
	}

	sl := cknn.SplitList(results)
	fmt.Fprintf(out, "split list (%d split points):\n", len(sl))
	for _, sp := range sl {
		fmt.Fprintf(out, "  from %s (segment %d, ETA %s): NN = %v\n",
			sp.P, sp.SegmentIndex, sp.ETA.Format("15:04"), sp.NN)
	}

	hits, misses := method.Stats()
	fmt.Fprintf(out, "cache: %d hits, %d misses\n", hits, misses)
	return nil
}
