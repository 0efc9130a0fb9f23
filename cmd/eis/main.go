// Command eis runs the EcoCharge Information Server (Mode 2 of the paper's
// architecture): it assembles a dataset scenario and serves the JSON API on
// the given address. SIGINT/SIGTERM trigger a graceful shutdown: the
// listener closes immediately, in-flight requests get the drain deadline to
// finish.
//
// Example:
//
//	eis -addr :8080 -dataset Oldenburg
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ecocharge/internal/eis"
	"ecocharge/internal/experiment"
	"ecocharge/internal/fault"
	"ecocharge/internal/fleet"
	"ecocharge/internal/obs"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		dataset     = flag.String("dataset", "Oldenburg", "dataset profile: Oldenburg, California, T-drive, Geolife")
		seed        = flag.Int64("seed", 42, "scenario seed")
		shard       = flag.String("shard", "", `serve one shard of an n-way fleet partition, as "i/n" (e.g. 0/3); empty serves the whole inventory`)
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline for in-flight requests")
		faultRate   = flag.Float64("faultrate", 0, "injected EC-source fault rate in [0,1] (chaos/testing; 0 disables)")
		faultSeed   = flag.Int64("faultseed", 1, "fault-injection seed (with -faultrate)")
		debugP      = flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/ (profiling; do not expose publicly)")
		traceP      = flag.String("trace", "", "export request spans as JSON lines to this file")
		traceSample = flag.Int64("trace-sample", 1, "export one trace in N (with -trace; 1 = every trace)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	cfg := handlerConfig{
		dataset: *dataset, seed: *seed, shard: *shard,
		faultRate: *faultRate, faultSeed: *faultSeed,
	}
	if *traceP != "" {
		f, err := os.OpenFile(*traceP, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			logger.Fatalf("eis: opening -trace file: %v", err)
		}
		defer f.Close()
		every := uint64(1)
		if *traceSample > 1 {
			every = uint64(*traceSample)
		}
		cfg.tracer = obs.NewTracer(f, obs.TracerOptions{SampleEvery: every})
		logger.Printf("eis: exporting spans to %s (1 in %d traces)", *traceP, every)
	}
	handler, desc, err := newHandler(cfg, logger)
	if err != nil {
		logger.Fatalf("eis: %v", err)
	}
	if *debugP {
		handler = withPprof(handler)
		logger.Printf("eis: pprof mounted at /debug/pprof/")
	}
	logger.Printf("eis: serving %s on %s", desc, *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := eis.Serve(ctx, "eis", *addr, handler, *drain, logger); err != nil {
		fmt.Fprintln(os.Stderr, "eis:", err)
		os.Exit(1)
	}
}

// withPprof overlays the stdlib profiling handlers on the API routes. The
// explicit registrations keep the server off http.DefaultServeMux, so
// nothing else that imports net/http/pprof can leak handlers into the EIS.
func withPprof(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handlerConfig carries the scenario and resilience knobs of newHandler.
type handlerConfig struct {
	dataset   string
	seed      int64
	shard     string
	faultRate float64
	faultSeed int64
	tracer    *obs.Tracer
}

// parseShard splits the "i/n" form of -shard.
func parseShard(s string) (i, n int, err error) {
	if _, err := fmt.Sscanf(s, "%d/%d", &i, &n); err != nil {
		return 0, 0, fmt.Errorf("-shard %q: want the form i/n", s)
	}
	if n <= 0 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("-shard %q: index %d outside [0,%d)", s, i, n)
	}
	return i, n, nil
}

// newHandler assembles the scenario and returns the EIS routes plus a
// human-readable description of what is being served.
func newHandler(cfg handlerConfig, logger *log.Logger) (http.Handler, string, error) {
	// The EIS only needs the environment; trips are client business.
	sc, err := experiment.ServedScenario(cfg.dataset, cfg.seed)
	if err != nil {
		return nil, "", fmt.Errorf("building scenario: %w", err)
	}
	env := sc.Env
	if cfg.shard != "" {
		// A fleet member serves only its rendezvous partition; ShardEnv keeps
		// the parent normalizers so per-charger scores stay fleet-identical.
		i, n, err := parseShard(cfg.shard)
		if err != nil {
			return nil, "", err
		}
		env, err = fleet.ShardEnv(env, i, n)
		if err != nil {
			return nil, "", err
		}
	}
	desc := fmt.Sprintf("%s (%d chargers, %d road nodes)",
		sc.Name, env.Chargers.Len(), sc.Graph.NumNodes())
	if cfg.shard != "" {
		desc += fmt.Sprintf(", shard %s", cfg.shard)
	}
	if cfg.faultRate > 0 {
		// Degrade EC sources at the configured rate: tables keep coming,
		// affected components carry the Degraded tag. The env copy keeps the
		// scenario itself pristine.
		envCopy := *env
		envCopy.Faults = fault.Sources(fault.New(fault.Config{Seed: cfg.faultSeed, Rate: cfg.faultRate}))
		env = &envCopy
		desc += fmt.Sprintf(", fault rate %.0f%%", 100*cfg.faultRate)
	}
	srv := eis.NewServer(env, eis.ServerOptions{Logger: logger, Tracer: cfg.tracer})
	mw := &eis.Middleware{MaxInFlight: 256, Logger: logger}
	return mw.Wrap(srv.Handler()), desc, nil
}
