// Command loadgen is the open-loop load harness: it drives synthetic trip
// traffic (streamed from the Brinkhoff-style generator of a dataset
// profile) against a gateway or single EIS — or an in-process 3-shard
// fleet it starts itself — and reports coordinated-omission-safe latency
// (measured from *intended* send time), goodput of tabletest-valid
// answers, shed rate, and contract violations per rate step.
//
// A rate sweep locates the saturation knee of each plane, provided its
// rates cross it:
//
//	loadgen -profile Oldenburg -scale 0.005 \
//	        -rate-sweep 1000,2000,4000,8000 -step-duration 2s
//
// Against a running fleet:
//
//	loadgen -target http://localhost:8080 -plane wire -rate 200 -step-duration 10s
//
// Exit status: 0 on a clean run, 1 when any response violated the overload
// contract (non-tabletest-valid 200, 503 without Retry-After, corrupt body),
// 2 on setup errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ecocharge/internal/experiment"
	"ecocharge/internal/load"
	"ecocharge/internal/trajectory"
	"ecocharge/internal/wire"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		target      = flag.String("target", "", "base URL of a gateway or EIS; empty starts the in-process fleet")
		inprocN     = flag.Int("shards", 3, "shard count of the in-process fleet")
		maxInFlight = flag.Int("max-in-flight", 0, "per-shard in-flight cap of the in-process fleet (0 = no shedding)")
		profileName = flag.String("profile", "Oldenburg", "dataset profile driving the trip stream")
		scale       = flag.Float64("scale", 0.005, "environment scale of the in-process fleet")
		seed        = flag.Int64("seed", 42, "seed of trips and arrival schedules")
		planeArg    = flag.String("plane", "both", "interchange plane: json, wire, or both")
		arrivals    = flag.String("arrivals", "poisson", "arrival process: poisson or constant")
		rate        = flag.Float64("rate", 100, "arrival rate (requests/s) when -rate-sweep is not given")
		sweep       = flag.String("rate-sweep", "", "comma-separated rates to sweep for the knee report (e.g. 1000,2000,4000,8000)")
		stepDur     = flag.Duration("step-duration", 2*time.Second, "nominal duration of one rate step (arrivals = rate × duration)")
		workers     = flag.Int("workers", 64, "sender pool size (bounds in-flight requests)")
		timeout     = flag.Duration("timeout", 5*time.Second, "per-request deadline")
		k           = flag.Int("k", 5, "offering table size requested")
		radiusM     = flag.Float64("radius-m", 0, "search radius in meters (0 = server default)")
		vehicles    = flag.Int("vehicles", 256, "concurrent trip sessions queries rotate across")
		segLenM     = flag.Float64("seg-len-m", 4000, "trip segment length (one query per segment)")
		closedLoop  = flag.Bool("closed-loop", false, "closed-loop control mode: latency from actual send (coordinated-omission-UNSAFE; for comparison only)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rates, err := parseRates(*sweep, *rate)
	if err != nil {
		return fatal(err)
	}
	planes, err := parsePlanes(*planeArg)
	if err != nil {
		return fatal(err)
	}
	profile, err := trajectory.ProfileByName(*profileName)
	if err != nil {
		return fatal(err)
	}
	scen, err := experiment.BuildScenarioFromProfile(profile, *scale, *seed)
	if err != nil {
		return fatal(err)
	}

	if *target != "" && len(planes) > 1 {
		fmt.Println("loadgen: the planes share the target's response cache: the second plane runs on what the first one filled")
	}

	var steps []load.Result
	violations := 0
	// sweepPlane runs every rate step on one plane. Without -target it starts
	// its own in-process fleet, so every plane begins on a cold response cache.
	sweepPlane := func(plane load.Plane) error {
		base := *target
		if base == "" {
			ip, err := load.StartInproc(scen.Env, load.InprocOptions{
				Shards:      *inprocN,
				MaxInFlight: *maxInFlight,
			})
			if err != nil {
				return err
			}
			defer ip.Close()
			base = ip.URL
			fmt.Printf("loadgen: in-process fleet of %d shards at %s (%s scale %v, %d chargers)\n",
				*inprocN, base, profile.Name, *scale, scen.Env.Chargers.Len())
		}
		runner, err := load.NewRunner(load.Options{
			BaseURL: base,
			Plane:   plane,
			K:       *k,
			RadiusM: *radiusM,
			Weights: wire.WeightsJSON{},
			Now:     scen.Start,
			Timeout: *timeout,
			Workers: *workers,

			ClosedLoop: *closedLoop,
		})
		if err != nil {
			return err
		}
		// Per-plane sampler with the same seed: both planes offer the
		// byte-identical query stream to a cold fleet, so their steps compare
		// like for like.
		sampler, err := trajectory.NewSampler(scen.Graph, profile.SamplerConfig(*seed, scen.Start))
		if err != nil {
			return err
		}
		sessions, err := load.NewSessions(scen.Graph, sampler, *vehicles, *segLenM)
		if err != nil {
			return err
		}
		for si, hz := range rates {
			n := int(hz * stepDur.Seconds())
			if n < 1 {
				n = 1
			}
			sched, err := buildSchedule(*arrivals, hz, n, *seed+int64(si))
			if err != nil {
				return err
			}
			res, err := runner.Run(ctx, sessions, sched, hz)
			if err != nil {
				return fmt.Errorf("%s rate %.0f: %w", plane, hz, err)
			}
			steps = append(steps, res)
			violations += res.Invalid
			fmt.Printf("loadgen: %-4s rate %6.0f/s: %d offered, %d valid, p99 %v, goodput %.1f/s\n",
				plane, hz, res.Offered, res.Valid, res.Latency.Quantile(0.99).Round(100*time.Microsecond), res.Goodput())
		}
		return nil
	}
	for _, plane := range planes {
		if err := sweepPlane(plane); err != nil {
			return fatal(err)
		}
	}

	fmt.Println()
	if err := load.WriteReport(os.Stdout, steps); err != nil {
		return fatal(err)
	}

	if violations > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d responses violated the overload contract\n", violations)
		return 1
	}
	return 0
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	return 2
}

func parseRates(sweep string, single float64) ([]float64, error) {
	if strings.TrimSpace(sweep) == "" {
		if single <= 0 {
			return nil, fmt.Errorf("-rate must be positive")
		}
		return []float64{single}, nil
	}
	var out []float64
	for _, part := range strings.Split(sweep, ",") {
		hz, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || hz <= 0 {
			return nil, fmt.Errorf("bad -rate-sweep entry %q", part)
		}
		out = append(out, hz)
	}
	return out, nil
}

func parsePlanes(arg string) ([]load.Plane, error) {
	switch arg {
	case "json":
		return []load.Plane{load.PlaneJSON}, nil
	case "wire":
		return []load.Plane{load.PlaneWire}, nil
	case "both":
		return []load.Plane{load.PlaneJSON, load.PlaneWire}, nil
	}
	return nil, fmt.Errorf("unknown -plane %q (json, wire, both)", arg)
}

func buildSchedule(kind string, hz float64, n int, seed int64) (load.Schedule, error) {
	switch kind {
	case "poisson":
		return load.Poisson(hz, n, seed)
	case "constant":
		return load.Constant(hz, n)
	}
	return nil, fmt.Errorf("unknown -arrivals %q (poisson, constant)", kind)
}
