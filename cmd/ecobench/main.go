// Command ecobench regenerates the paper's evaluation figures (Figs. 6–9)
// as text tables: for every dataset it runs the compared methods and prints
// SC% (of the Brute-Force optimum) and per-query CPU time F_t, mean ±
// standard deviation over repetitions. The extra "design" figure isolates
// EcoCharge's own design choices (cache, interval approximation).
//
// Example:
//
//	ecobench -fig all -scale 0.002 -reps 10 -csv results.csv
//	ecobench -fig 6 -dataset Oldenburg
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"ecocharge/internal/experiment"
	"ecocharge/internal/fault"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 6, 7, 8, 9, horizon, design or all")
		scale     = flag.Float64("scale", 0.002, "trip-count scale relative to the paper's full datasets")
		seed      = flag.Int64("seed", 42, "scenario seed")
		reps      = flag.Int("reps", 5, "measurement repetitions (paper: ~10)")
		trips     = flag.Int("trips", 8, "trips sampled per repetition")
		k         = flag.Int("k", 3, "chargers per Offering Table")
		dataset   = flag.String("dataset", "", "restrict to one dataset profile (default: all four)")
		csvP      = flag.String("csv", "", "also export all measurements to this CSV file")
		faultRate = flag.Float64("faultrate", 0, "deterministic EC-source fault rate in [0,1] (0 = no injection)")
		faultSeed = flag.Int64("faultseed", 1, "fault-injection PRNG seed (independent of -seed)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (see docs/perf.md)")
		memProf   = flag.String("memprofile", "", "write a post-run heap profile to this file (see docs/perf.md)")
	)
	flag.Parse()

	if *faultRate < 0 || *faultRate > 1 {
		fmt.Fprintln(os.Stderr, "ecobench: -faultrate must be in [0,1]")
		os.Exit(1)
	}
	cfg := experiment.RunConfig{Repetitions: *reps, TripsPerRep: *trips, K: *k}
	opts := runOpts{
		fig: *fig, dataset: *dataset, scale: *scale, seed: *seed,
		cfg: cfg, csvPath: *csvP, faultRate: *faultRate, faultSeed: *faultSeed,
	}
	err := withProfiles(*cpuProf, *memProf, func() error {
		return run(context.Background(), opts)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecobench:", err)
		os.Exit(1)
	}
}

// withProfiles brackets fn with optional CPU and heap profiling so every
// exit path through run still flushes the profile files.
func withProfiles(cpuPath, memPath string, fn func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return fmt.Errorf("creating -cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if memPath != "" {
		defer func() {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ecobench: creating -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ecobench: writing heap profile:", err)
			}
		}()
	}
	return fn()
}

// runOpts carries the resolved command-line configuration.
type runOpts struct {
	fig       string
	dataset   string // empty = all profiles
	scale     float64
	seed      int64
	cfg       experiment.RunConfig
	csvPath   string
	faultRate float64
	faultSeed int64
}

// figureSpec binds a figure id to its runner and title.
type figureSpec struct {
	id       string
	title    string
	ablation bool // use the ablation printer (shares columns)
	run      func(ctx context.Context, sc *experiment.Scenario, cfg experiment.RunConfig) ([]experiment.Measurement, error)
}

func figures() []figureSpec {
	return []figureSpec{
		{
			id:    "6",
			title: "Figure 6 — Performance Evaluation (all methods, R=50km Q=5km, equal weights)",
			run:   experiment.RunPerformance,
		},
		{
			id:    "7",
			title: "Figure 7 — R-opt Evaluation (EcoCharge, R ∈ {25, 50, 75} km)",
			run: func(ctx context.Context, sc *experiment.Scenario, cfg experiment.RunConfig) ([]experiment.Measurement, error) {
				return experiment.RunROpt(ctx, sc, cfg, []float64{25, 50, 75})
			},
		},
		{
			id:    "8",
			title: "Figure 8 — Q-opt Evaluation (EcoCharge, Q ∈ {5, 10, 15} km)",
			run: func(ctx context.Context, sc *experiment.Scenario, cfg experiment.RunConfig) ([]experiment.Measurement, error) {
				return experiment.RunQOpt(ctx, sc, cfg, []float64{5, 10, 15})
			},
		},
		{
			id:       "9",
			title:    "Figure 9 — Ablation of Weight Parameters (AWE/OSC/OA/ODC)",
			ablation: true,
			run:      experiment.RunAblation,
		},
		{
			id:    "horizon",
			title: "Horizon Sweep — EcoCharge planning h ahead vs a fresh-forecast oracle",
			run: func(ctx context.Context, sc *experiment.Scenario, cfg experiment.RunConfig) ([]experiment.Measurement, error) {
				return experiment.RunHorizonSweep(ctx, sc, cfg, []time.Duration{0, 2 * time.Hour, 6 * time.Hour, 24 * time.Hour})
			},
		},
		{
			id:    "design",
			title: "Design Ablation — EcoCharge variants (cache off / exact intervals)",
			run:   experiment.RunDesignAblation,
		},
	}
}

func run(ctx context.Context, o runOpts) error {
	specs := figures()
	ids := make([]string, 0, len(specs)+1)
	for _, spec := range specs {
		ids = append(ids, spec.id)
	}
	ids = append(ids, "all")
	if !slices.Contains(ids, o.fig) {
		return fmt.Errorf("unknown figure %q (want one of %s)", o.fig, strings.Join(ids, ", "))
	}

	var scenarios []*experiment.Scenario
	if o.dataset != "" {
		sc, err := experiment.BuildScenario(o.dataset, o.scale, o.seed)
		if err != nil {
			return err
		}
		scenarios = []*experiment.Scenario{sc}
	} else {
		var err error
		scenarios, err = experiment.BuildAllScenarios(o.scale, o.seed)
		if err != nil {
			return err
		}
	}
	if o.faultRate > 0 {
		// Degrade every scenario environment with the same deterministic
		// policy so methods are compared under identical source outages.
		for _, sc := range scenarios {
			cp := *sc.Env
			cp.Faults = fault.Sources(fault.New(fault.Config{Seed: o.faultSeed, Rate: o.faultRate}))
			sc.Env = &cp
		}
		fmt.Printf("fault injection: rate %g, seed %d\n", o.faultRate, o.faultSeed)
	}
	fmt.Printf("scenarios at scale %g (trips per dataset: ", o.scale)
	for i, sc := range scenarios {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("%s=%d", sc.Name, len(sc.Trips))
	}
	fmt.Println(")")
	fmt.Println()

	var exported []experiment.Measurement
	for _, spec := range specs {
		if o.fig != "all" && o.fig != spec.id {
			continue
		}
		var all []experiment.Measurement
		for _, sc := range scenarios {
			ms, err := spec.run(ctx, sc, o.cfg)
			if err != nil {
				return err
			}
			all = append(all, ms...)
		}
		var err error
		if spec.ablation {
			err = experiment.PrintAblation(os.Stdout, spec.title, all)
		} else {
			err = experiment.PrintFigure(os.Stdout, spec.title, all)
		}
		if err != nil {
			return err
		}
		fmt.Println()
		exported = append(exported, all...)
	}

	if o.csvPath == "" {
		return nil
	}
	f, err := os.Create(o.csvPath)
	if err != nil {
		return err
	}
	err = experiment.WriteMeasurementsCSV(f, exported)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("exporting CSV: %w", err)
	}
	fmt.Printf("exported %d measurements to %s\n", len(exported), o.csvPath)
	return nil
}
