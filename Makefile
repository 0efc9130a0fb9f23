# EcoCharge build targets. Everything is stdlib Go; no external tools.

GO ?= go

.PHONY: all build test race vet lint chaos chaos-fleet fleet-smoke fuzz bench bench-check bench-run bench-smoke cover figures examples clean

all: build vet lint test bench-check bench-run chaos chaos-fleet bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# gofmt -l exits 0 whatever it lists, so the list itself is the test.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

# Repo-specific static analysis (see docs/lint.md). Nonzero exit on findings.
lint:
	$(GO) run ./cmd/ecolint ./...

# Chaos suite under the race detector: deterministic fault injection at
# 0%/10%/30% through every ranking method and the EIS client/server (see
# docs/resilience.md). Rate 0 must be byte-identical to the fault-free
# engine; nonzero rates must keep serving valid, correctly tagged tables.
chaos:
	$(GO) test -race -run Chaos ./internal/cknn ./internal/eis

# Fleet chaos suite under the race detector: the sharded-gateway differential
# harness (byte-identity at fault rate 0, degraded merges under shard
# blackouts/partitions/slow shards, shards dead from boot, hedged failover,
# the road world read at every probe) plus
# the fleet fault shapes and partition/merge property tests (see
# docs/resilience.md). The harness runs the production setup: a gateway
# that holds the road world and asks its shards for the binary format.
chaos-fleet:
	$(GO) test -race -count=1 -run 'TestChaosFleet|TestFleet|TestPartition|TestShardEnv|TestMerge|TestSynth' ./internal/fleet ./internal/fault

# Two binaries, one world: cmd/eis -shard 0/2 and 1/2 and cmd/gateway, built
# and started as processes with their default -dataset and -seed on fixed
# loopback ports (18180-18182), must agree on the world — both members
# searched on /fleet/status, and one wire /offering sends travel blocks
# (fleet_travel_supplied_total > 0). Then both shards are killed, and the
# gateway's /chargers radius query and /traffic must answer 200 with no
# X-Fleet-Degraded header. Every process left is killed on exit (~10 s).
fleet-smoke:
	bash scripts/fleet-smoke.sh

# Smoke-run every fuzz target briefly; the seed corpora already run as part
# of `make test`, this explores beyond them. go test accepts one -fuzz
# pattern per invocation, hence the separate runs. FuzzAnswerJSON runs
# encoding/json beside every appender, a millisecond an input: minimizing a
# new input of a few hundred bytes would take the default 60 s, so its
# minimization is capped.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzFromBounds -fuzztime=10s ./internal/interval/
	$(GO) test -run='^$$' -fuzz=FuzzOps -fuzztime=10s ./internal/interval/
	$(GO) test -run='^$$' -fuzz=FuzzJSONRoundTrip -fuzztime=10s ./internal/charger/
	$(GO) test -run='^$$' -fuzz=FuzzCSVRoundTrip -fuzztime=10s ./internal/charger/
	$(GO) test -run='^$$' -fuzz=FuzzExpandToMany -fuzztime=10s ./internal/roadnet/
	$(GO) test -run='^$$' -fuzz=FuzzExpandFrontiers -fuzztime=10s ./internal/roadnet/
	$(GO) test -run='^$$' -fuzz=FuzzItemsWithin -fuzztime=10s ./internal/spatial/
	$(GO) test -run='^$$' -fuzz=FuzzWireRoundTrip -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzWireDecode -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzOfferingJSONRoundTrip -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzAnswerJSON -fuzztime=10s -fuzzminimizetime=2s ./internal/wire/
	$(GO) test -run='^$$' -fuzz=FuzzTripRoute -fuzztime=10s ./internal/eis/
	$(GO) test -run='^$$' -fuzz=FuzzRank -fuzztime=10s ./internal/cknn/
	$(GO) test -run='^$$' -fuzz=FuzzGatewayFrontDoor -fuzztime=10s ./internal/fleet/
	$(GO) test -run='^$$' -fuzz=FuzzShardAnswer -fuzztime=10s ./internal/fleet/

bench:
	$(GO) test -bench=. -benchmem ./...

# The repository benchmark (bench/, BENCHMARK.json) is a nested module, so
# `./...` never reaches it: vet it and run its own tests (~7 s) here, so a
# renamed export or counter it depends on fails the gate, not the next
# benchmark run.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# Run the repository benchmark itself, briefly, over all four workloads:
# untraced, then traced. Each run checks what the benchmark checks before it
# reports — the cache fill, the answers' quality, the two planes' parity and
# the traced replay — and exits non-zero when one fails (~60 s on a 2-core
# host). Results go to bench/out.
bench-run:
	bash bench/run.sh --seconds 2 --trace 0
	bash bench/run.sh --seconds 2 --trace 1

# Smoke-run every series of the figure ledger on the smallest profile and
# the micro-benchmarks of every layer (docs/perf.md "Where a number comes
# from").
bench-smoke:
	$(GO) run ./cmd/ecobench -fig all -dataset Oldenburg -scale 0.0005 -reps 1 -trips 1
	$(GO) test -run='^$$' -bench=BenchmarkObsOverhead -benchtime=20x ./internal/cknn
	$(GO) test -run='^$$' -bench=BenchmarkManyToMany -benchtime=10x ./internal/roadnet
	$(GO) test -run='^$$' -bench='BenchmarkExpand(Oldenburg|California)$$' -benchtime=31x ./internal/roadnet
	$(GO) test -run='^$$' -bench=BenchmarkRankOnceOldenburg -benchtime=10x ./internal/cknn
	$(GO) test -run='^$$' -bench=BenchmarkRetrievalOldenburg -benchtime=1000x ./internal/cknn
	$(GO) test -run='^$$' -bench='BenchmarkGatewayHit(JSON)?$$' -benchtime=2000x ./internal/fleet
	$(GO) test -run='^$$' -bench='BenchmarkGatewayMiss$$' -benchtime=200x ./internal/fleet
	$(GO) test -run='^$$' -bench='BenchmarkGatewayTrip$$' -benchtime=100x ./internal/fleet
	$(GO) test -run='^$$' -bench=BenchmarkWireCodec -benchtime=100x ./internal/wire
	$(GO) test -run='^$$' -bench=BenchmarkServeEncode -benchtime=20x ./internal/eis

# Coverage gate: aggregate statement coverage across every package against a
# ratcheted floor — raise it when coverage improves, never lower it. The
# profile (cover.out) is uploaded as a CI artifact for drill-down.
#
# The basis changed in PR 22: the suite ran under -short until then (floor
# 83.0), which skips the tests that drive cmd/ecobench and cmd/eis and so
# counted those binaries as nearly uncovered. It now runs the
# same suite `make test` runs; on that basis the parent measured 85.8 % and
# PR 22, which deleted 1.2k lines of 95 %-covered lint tooling, 85.5 %.
# PR 27 deleted cmd/benchdiff (well covered) together with ecobench's serve
# figure and JSON export (barely covered): 85.4 % at its parent, 86.6 % after.
# Deleting the root facade, cmd/datagen, examples/taxi_idle (0 % covered) and
# the library only its own tests reached then took it from 86.8 % to 87.3 %.
COVER_FLOOR = 87.0

cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN { \
		if (t+0 < f+0) { printf "coverage %.1f%% is below the %.1f%% floor\n", t, f; exit 1 } \
		printf "coverage %.1f%% (floor %.1f%%)\n", t, f }'

# Regenerate every evaluation figure (paper Figs. 6-9 + the horizon and
# design supplements) as text tables: the one recipe behind EXPERIMENTS.md,
# kept verbatim in docs/ecobench_output.txt. Repetitions are timed one at a
# time (~2 min).
figures:
	$(GO) run ./cmd/ecobench -fig all -scale 0.002 -reps 5 > docs/ecobench_output.txt
	@cat docs/ecobench_output.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/commute
	$(GO) run ./examples/server_mode
	$(GO) run ./examples/custom_world

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt cover.out
