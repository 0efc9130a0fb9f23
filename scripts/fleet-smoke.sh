#!/usr/bin/env bash
# Two shards and a gateway, started as three processes with neither -dataset
# nor -seed, must name one world: the gateway's /fleet/status shows both
# members searched for, and a wire /offering sends them travel blocks
# (fleet_travel_supplied_total > 0). Then both shards are killed, and the
# gateway must still answer a /chargers radius query and /traffic from its
# own world: 200, with no X-Fleet-Degraded header. It listens on fixed
# loopback ports, 18180 (gateway), 18181 and 18182 (shards), and kills every
# process left on exit. Run it from anywhere: `make fleet-smoke`.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=$(mktemp -d)
pids=()
cleanup() {
	for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
	wait 2>/dev/null || true
	rm -rf "$bin"
}
trap cleanup EXIT

go build -o "$bin/eis" ./cmd/eis
go build -o "$bin/gateway" ./cmd/gateway
go build -o "$bin/loadgen" ./cmd/loadgen

gw=http://127.0.0.1:18180
"$bin/eis" -addr 127.0.0.1:18181 -shard 0/2 & pids+=($!)
"$bin/eis" -addr 127.0.0.1:18182 -shard 1/2 & pids+=($!)
"$bin/gateway" -addr 127.0.0.1:18180 -shards http://127.0.0.1:18181,http://127.0.0.1:18182 & pids+=($!)

# The shards build their scenario before they listen; the gateway probes
# every two seconds.
searched=0
for _ in $(seq 1 120); do
	status=$(curl -fsS "$gw/fleet/status" 2>/dev/null || true)
	searched=$(grep -o '"searched":true' <<<"$status" | wc -l || true)
	[ "$searched" -eq 2 ] && break
	sleep 1
done
if [ "$searched" -ne 2 ]; then
	echo "fleet-smoke: /fleet/status never showed both members searched: $status" >&2
	exit 1
fi
echo "fleet-smoke: $status"

"$bin/loadgen" -target "$gw" -plane wire -arrivals constant -rate 1 -step-duration 1s -workers 1

supplied=$(curl -fsS "$gw/metrics" | awk '$1 == "fleet_travel_supplied_total" { print $2 }')
if [ -z "$supplied" ] || [ "$supplied" -eq 0 ]; then
	echo "fleet-smoke: fleet_travel_supplied_total is '${supplied:-absent}': the gateway searched for no shard" >&2
	exit 1
fi
echo "fleet-smoke: ok, fleet_travel_supplied_total $supplied"

# The data feeds are the gateway's own: with no shard left they answer as
# before, and nothing marks them degraded.
kill "${pids[0]}" "${pids[1]}"
wait "${pids[0]}" "${pids[1]}" 2>/dev/null || true
for path in "/api/v1/chargers?lat=53.14&lon=8.21&radius_m=5000" "/api/v1/traffic"; do
	code=$(curl -sS -o /dev/null -D "$bin/headers" -w '%{http_code}' "$gw$path")
	if [ "$code" != 200 ] || grep -qi '^X-Fleet-Degraded:' "$bin/headers"; then
		echo "fleet-smoke: $path with both shards down answered $code:" >&2
		cat "$bin/headers" >&2
		exit 1
	fi
done
echo "fleet-smoke: ok, /chargers and /traffic answer 200 undegraded with both shards down"
