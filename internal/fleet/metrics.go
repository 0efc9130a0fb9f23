package fleet

import "ecocharge/internal/obs"

// fleetMetrics bundles the gateway's instrumentation, resolved once at
// package init (the register-cold/update-hot contract of internal/obs).
type fleetMetrics struct {
	// Per-endpoint gateway request duration histograms, measured around the
	// whole fan-out including the merge.
	httpChargers *obs.Histogram
	httpWeather  *obs.Histogram
	httpAvail    *obs.Histogram
	httpTraffic  *obs.Histogram
	httpOffering *obs.Histogram
	httpTrip     *obs.Histogram

	// Shard exchanges: every primary or hedged attempt against a shard.
	shardRequests *obs.Counter
	shardFailures *obs.Counter

	// Hedging: hedges fired (replica engaged after the hedge delay) and
	// hedge wins (the replica answered first or the primary had failed).
	hedgesFired *obs.Counter
	hedgeWins   *obs.Counter

	// Probing and membership.
	probes          *obs.Counter
	probeFailures   *obs.Counter
	inventoryPulls  *obs.Counter
	shardsUnhealthy *obs.Gauge

	// Degraded merges: responses that widened at least one shard to the
	// ignorance bound, and the synthesized entries they carried.
	degradedMerges  *obs.Counter
	degradedEntries *obs.Counter

	// Travel blocks: sent to a shard with its request (the gateway searched
	// on its behalf), and of those the ones the shard answered from its cache
	// all the same — a search the filter should have saved.
	travelSupplied *obs.Counter
	travelWasted   *obs.Counter

	// Per-format decode share of the fan-out path: how long the gateway
	// spends unmarshalling shard bodies, split by interchange format.
	decodeJSON *obs.Histogram
	decodeWire *obs.Histogram
}

func newFleetMetrics(r *obs.Registry) *fleetMetrics {
	return &fleetMetrics{
		httpChargers: r.Histogram("gateway_http_seconds_chargers", nil),
		httpWeather:  r.Histogram("gateway_http_seconds_weather", nil),
		httpAvail:    r.Histogram("gateway_http_seconds_availability", nil),
		httpTraffic:  r.Histogram("gateway_http_seconds_traffic", nil),
		httpOffering: r.Histogram("gateway_http_seconds_offering", nil),
		httpTrip:     r.Histogram("gateway_http_seconds_offering_trip", nil),

		shardRequests: r.Counter("gateway_shard_requests_total"),
		shardFailures: r.Counter("gateway_shard_failures_total"),

		hedgesFired: r.Counter("gateway_hedges_fired_total"),
		hedgeWins:   r.Counter("gateway_hedge_wins_total"),

		probes:          r.Counter("gateway_probes_total"),
		probeFailures:   r.Counter("gateway_probe_failures_total"),
		inventoryPulls:  r.Counter("gateway_inventory_pulls_total"),
		shardsUnhealthy: r.Gauge("gateway_shards_unhealthy"),

		degradedMerges:  r.Counter("gateway_degraded_merges_total"),
		degradedEntries: r.Counter("gateway_degraded_entries_total"),

		travelSupplied: r.Counter("fleet_travel_supplied_total"),
		travelWasted:   r.Counter("fleet_travel_wasted_total"),

		decodeJSON: r.Histogram("gateway_decode_seconds_json", nil),
		decodeWire: r.Histogram("gateway_decode_seconds_wire", nil),
	}
}

var met = newFleetMetrics(obs.Default())
