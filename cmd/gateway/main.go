// Command gateway fronts a sharded EIS fleet: it health-checks the member
// instances, fans queries out with per-shard deadlines and hedged replicas,
// and merges per-shard Offering Tables into the table a single EIS over the
// whole inventory would serve. Chargers owned by an unreachable shard stay
// in every table at the ignorance bound, tagged shard-degraded, instead of
// silently disappearing.
//
// Each shard is "primary" or "primary|replica"; shards are comma-separated
// and their order must match the -shard i/n indexes the members were
// started with:
//
//	eis -addr :8081 -shard 0/2 &
//	eis -addr :8082 -shard 1/2 &
//	gateway -addr :8080 -shards http://localhost:8081,http://localhost:8082
//
// Given the dataset and seed the members were started with, the gateway
// loads the same road world and runs the network search of every cache-miss
// ranking once, handing each shard its travel times, where each shard would
// otherwise run the same search:
//
//	eis -addr :8081 -dataset Oldenburg -seed 42 -shard 0/2 &
//	eis -addr :8082 -dataset Oldenburg -seed 42 -shard 1/2 &
//	gateway -addr :8080 -dataset Oldenburg -seed 42 -shards http://localhost:8081,http://localhost:8082
//
// Without -dataset it stays graph-free and the shards search for themselves;
// so they do, each on its own, when its world is not the gateway's (a
// different dataset or seed): the answers are the same either way.
//
// SIGINT/SIGTERM trigger a graceful shutdown: probing stops, the listener
// closes, and in-flight requests get the drain deadline to finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ecocharge/internal/experiment"
	"ecocharge/internal/fleet"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		shardsArg = flag.String("shards", "", `comma-separated shard base URLs, each "primary" or "primary|replica", in shard-index order`)
		timeout   = flag.Duration("shard-timeout", 2*time.Second, "per-shard deadline of one fan-out exchange")
		hedge     = flag.Duration("hedge", 250*time.Millisecond, "delay before hedging a slow primary to its replica (negative disables hedging)")
		probeIvl  = flag.Duration("probe-interval", 2*time.Second, "active health-check period")
		threshold = flag.Int("breaker-threshold", 5, "consecutive shard faults that open its breaker")
		cooldown  = flag.Duration("breaker-cooldown", 5*time.Second, "open time before a shard breaker admits its half-open trial")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline for in-flight requests")
		dataset   = flag.String("dataset", "", "dataset profile the members serve (Oldenburg, California, T-drive, Geolife): load its road world and search once per ranking on the shards' behalf; empty keeps the gateway graph-free")
		seed      = flag.Int64("seed", 42, "scenario seed the members were started with (with -dataset)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	gw, desc, err := newGateway(*shardsArg, *dataset, *seed, fleet.Options{
		ShardTimeout:     *timeout,
		HedgeDelay:       *hedge,
		ProbeInterval:    *probeIvl,
		BreakerThreshold: *threshold,
		BreakerCooldown:  *cooldown,
		Logger:           logger,
	})
	if err != nil {
		logger.Fatalf("gateway: %v", err)
	}
	logger.Printf("gateway: fronting %s on %s", desc, *addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go gw.Run(ctx)
	if err := run(ctx, *addr, gw.Handler(), *drain, logger); err != nil {
		fmt.Fprintln(os.Stderr, "gateway:", err)
		os.Exit(1)
	}
}

// newGateway builds the gateway over the -shards members and, when a dataset
// is named, the road world of that dataset and seed — the scenario cmd/eis
// assembles from the same two flags — plus a description of what it fronts.
func newGateway(shardsArg, dataset string, seed int64, opts fleet.Options) (*fleet.Gateway, string, error) {
	shards, err := parseShards(shardsArg)
	if err != nil {
		return nil, "", err
	}
	desc := fmt.Sprintf("%d shards, graph-free", len(shards))
	if dataset != "" {
		sc, err := experiment.BuildScenario(dataset, 0.001, seed)
		if err != nil {
			return nil, "", fmt.Errorf("building scenario: %w", err)
		}
		opts.Env = sc.Env
		desc = fmt.Sprintf("%d shards, searching %s seed %d (%d road nodes) on their behalf", len(shards), sc.Name, seed, sc.Graph.NumNodes())
	}
	gw, err := fleet.NewGateway(shards, opts)
	return gw, desc, err
}

// parseShards splits the -shards value into fleet members.
func parseShards(arg string) ([]fleet.Shard, error) {
	if strings.TrimSpace(arg) == "" {
		return nil, fmt.Errorf("-shards is required (comma-separated shard URLs)")
	}
	var out []fleet.Shard
	for _, part := range strings.Split(arg, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("-shards has an empty entry")
		}
		primary, replica, _ := strings.Cut(part, "|")
		out = append(out, fleet.Shard{URL: strings.TrimSuffix(primary, "/"), Replica: strings.TrimSuffix(replica, "/")})
	}
	return out, nil
}

// run serves until the context is cancelled, then drains in-flight requests
// for up to drain before forcing connections closed (same lifecycle as
// cmd/eis).
func run(ctx context.Context, addr string, handler http.Handler, drain time.Duration, logger *log.Logger) error {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	logger.Printf("gateway: shutdown signal received, draining for up to %v", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("draining: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("gateway: drained, bye")
	return nil
}
