#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout:
#
#   bash bench/run.sh --workload hot_cells --seed 1 --seconds 15 --trace 0
#
# Everything the toolchain writes (build cache, module cache, telemetry,
# the binary) goes under .bench_build in the checkout, so a run touches
# nothing outside it and every build after the first is a cache hit.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" ]]; then
  echo "bench/run.sh: run from the root of a checkout (go.mod and bench/go.mod must exist)" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOWORK=off

cd "$root/bench"
# The commit is stamped into the binary when the checkout is a git
# repository git will answer for; otherwise results say "unknown".
go build -o "$build/bench" . 2>/dev/null || go build -buildvcs=false -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
