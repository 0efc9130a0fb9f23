// Command gateway fronts a sharded EIS fleet: it health-checks the member
// instances, fans the two rankings out with per-shard deadlines and hedged
// replicas, and merges per-shard Offering Tables into the table a single EIS
// over the whole inventory would serve. Chargers owned by an unreachable
// shard stay in every table at the ignorance bound, tagged shard-degraded,
// instead of silently disappearing. The data feeds (chargers, weather,
// availability, traffic) it answers itself, from its own world.
//
// Each shard is "primary" or "primary|replica"; shards are comma-separated
// and their order must match the -shard i/n indexes the members were
// started with:
//
//	eis -addr :8081 -shard 0/2 &
//	eis -addr :8082 -shard 1/2 &
//	gateway -addr :8080 -shards http://localhost:8081,http://localhost:8082
//
// The gateway loads the world the members serve, from the same -dataset and
// -seed, whose defaults are cmd/eis's (Oldenburg, 42). It answers the data
// feeds; its partition names each shard's chargers, which a dead shard's
// table entries are synthesized from,
// and its road network is searched once per cache-miss ranking, each shard
// handed its travel times where it would otherwise run the same search. A
// shard whose world is not the gateway's (another dataset or seed), as it
// states at every health probe, searches for itself; its answers are the
// same either way.
//
// SIGINT/SIGTERM trigger a graceful shutdown: probing stops, the listener
// closes, and in-flight requests get the drain deadline to finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ecocharge/internal/eis"
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
		dataset   = flag.String("dataset", "Oldenburg", "dataset profile the members serve (Oldenburg, California, T-drive, Geolife): its world answers the data feeds and names each shard's chargers, and its road network is searched once per ranking on the shards' behalf")
		seed      = flag.Int64("seed", 42, "scenario seed the members were started with")
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
	if err := eis.Serve(ctx, "gateway", *addr, gw.Handler(), *drain, logger); err != nil {
		fmt.Fprintln(os.Stderr, "gateway:", err)
		os.Exit(1)
	}
}

// newGateway builds the gateway over the -shards members and the world of
// the dataset and seed — the scenario cmd/eis assembles from the same two
// flags — plus a description of what it fronts.
func newGateway(shardsArg, dataset string, seed int64, opts fleet.Options) (*fleet.Gateway, string, error) {
	shards, err := parseShards(shardsArg)
	if err != nil {
		return nil, "", err
	}
	sc, err := experiment.ServedScenario(dataset, seed)
	if err != nil {
		return nil, "", fmt.Errorf("building scenario: %w", err)
	}
	desc := fmt.Sprintf("%d shards, serving %s seed %d (%d road nodes, %d chargers)", len(shards), sc.Name, seed, sc.Graph.NumNodes(), sc.Env.Chargers.Len())
	gw, err := fleet.NewGateway(shards, sc.Env, opts)
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
