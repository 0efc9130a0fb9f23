package fleet

import "ecocharge/internal/obs"

// fleetMetrics bundles the gateway's instrumentation, resolved once at
// package init (the register-cold/update-hot contract of internal/obs).
type fleetMetrics struct {
	// Per-endpoint gateway request duration histograms, measured around the
	// whole handler: a ranking's fan-out and merge, a data feed's answer.
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

	// Decode share of the fan-out path: how long the gateway spends decoding
	// shard bodies, which are binary, always.
	decodeWire *obs.Histogram
}

func newFleetMetrics(r *obs.Registry) *fleetMetrics {
	// Kept registered, always at 0, for bench/, whose replay reads it: no
	// shard answer is JSON.
	r.Histogram("gateway_decode_seconds_json")
	return &fleetMetrics{
		httpChargers: r.Histogram("gateway_http_seconds_chargers"),
		httpWeather:  r.Histogram("gateway_http_seconds_weather"),
		httpAvail:    r.Histogram("gateway_http_seconds_availability"),
		httpTraffic:  r.Histogram("gateway_http_seconds_traffic"),
		httpOffering: r.Histogram("gateway_http_seconds_offering"),
		httpTrip:     r.Histogram("gateway_http_seconds_offering_trip"),

		shardRequests: r.Counter("gateway_shard_requests_total"),
		shardFailures: r.Counter("gateway_shard_failures_total"),

		hedgesFired: r.Counter("gateway_hedges_fired_total"),
		hedgeWins:   r.Counter("gateway_hedge_wins_total"),

		probes:          r.Counter("gateway_probes_total"),
		probeFailures:   r.Counter("gateway_probe_failures_total"),
		shardsUnhealthy: r.Gauge("gateway_shards_unhealthy"),

		degradedMerges:  r.Counter("gateway_degraded_merges_total"),
		degradedEntries: r.Counter("gateway_degraded_entries_total"),

		travelSupplied: r.Counter("fleet_travel_supplied_total"),
		travelWasted:   r.Counter("fleet_travel_wasted_total"),

		decodeWire: r.Histogram("gateway_decode_seconds_wire"),
	}
}

var met = newFleetMetrics(obs.Default())
