package eis

import "ecocharge/internal/obs"

// eisMetrics bundles the server- and client-side instrumentation handles of
// the EIS, resolved once at package init. Every update is a single atomic
// op; the request path never builds a metric name (per-endpoint histograms
// are distinct handles with constant names, not one histogram with a
// formatted label).
type eisMetrics struct {
	// Per-endpoint request duration histograms (server side, measured
	// around the handler including JSON encoding).
	httpChargers     *obs.Histogram
	httpWeather      *obs.Histogram
	httpAvailability *obs.Histogram
	httpTraffic      *obs.Histogram
	httpOffering     *obs.Histogram
	httpTrip         *obs.Histogram

	// Response cache (the server-side dynamic cache).
	rescacheHits      *obs.Counter
	rescacheMisses    *obs.Counter
	rescacheExpired   *obs.Counter // entries reclaimed on touch or at a put's queue head
	rescacheEvictions *obs.Counter // capacity evictions of live entries
	rescacheDeclined  *obs.Counter // computed tables a full stripe did not store
	rescacheEntries   *obs.Gauge   // current occupancy across all shards

	// Per-format response marshalling on the negotiated endpoints: the
	// histograms isolate the encode share of serving latency, the counters
	// track format adoption. Every encode of a computed table counts, the
	// cache's Cached=true copy included; a wire hit serves stored bytes and
	// counts under the response counters only, a JSON hit encodes and counts.
	encodeJSON *obs.Histogram
	encodeWire *obs.Histogram
	respJSON   *obs.Counter
	respWire   *obs.Counter
	// Binary-encoded request bodies accepted on POST endpoints.
	reqWire *obs.Counter

	// Single-flight offering computation: leaders run the ranking engine,
	// coalesced followers wait for the leader's table.
	flightLeads     *obs.Counter
	flightCoalesced *obs.Counter

	// Network searches a request brought along (a fleet gateway's travel
	// block), counted where a ranking was computed: built on, or refused —
	// it did not cover the ranking or failed validation — and searched here.
	travelUsed     *obs.Counter
	travelRejected *obs.Counter
	// Trip routes a request brought along (a fleet gateway's): followed, or
	// refused by TripOffering.Follow and routed here.
	routeUsed     *obs.Counter
	routeRejected *obs.Counter

	// Client-side circuit breaker state transitions.
	breakerOpened   *obs.Counter
	breakerHalfOpen *obs.Counter
	breakerClosed   *obs.Counter

	// Client retry attempts beyond the first exchange.
	clientRetries *obs.Counter
}

func newEISMetrics(r *obs.Registry) *eisMetrics {
	return &eisMetrics{
		httpChargers:     r.Histogram("eis_http_seconds_chargers"),
		httpWeather:      r.Histogram("eis_http_seconds_weather"),
		httpAvailability: r.Histogram("eis_http_seconds_availability"),
		httpTraffic:      r.Histogram("eis_http_seconds_traffic"),
		httpOffering:     r.Histogram("eis_http_seconds_offering"),
		httpTrip:         r.Histogram("eis_http_seconds_offering_trip"),

		rescacheHits:      r.Counter("eis_rescache_hits_total"),
		rescacheMisses:    r.Counter("eis_rescache_misses_total"),
		rescacheExpired:   r.Counter("eis_rescache_expired_total"),
		rescacheEvictions: r.Counter("eis_rescache_evictions_total"),
		rescacheDeclined:  r.Counter("eis_rescache_declined_total"),
		rescacheEntries:   r.Gauge("eis_rescache_entries"),

		encodeJSON: r.Histogram("eis_encode_seconds_json"),
		encodeWire: r.Histogram("eis_encode_seconds_wire"),
		respJSON:   r.Counter("eis_responses_json_total"),
		respWire:   r.Counter("eis_responses_wire_total"),
		reqWire:    r.Counter("eis_requests_wire_total"),

		flightLeads:     r.Counter("eis_singleflight_leads_total"),
		flightCoalesced: r.Counter("eis_singleflight_coalesced_total"),

		travelUsed:     r.Counter("eis_travel_used_total"),
		travelRejected: r.Counter("eis_travel_rejected_total"),
		routeUsed:      r.Counter("eis_route_used_total"),
		routeRejected:  r.Counter("eis_route_rejected_total"),

		breakerOpened:   r.Counter("eis_breaker_opened_total"),
		breakerHalfOpen: r.Counter("eis_breaker_halfopen_total"),
		breakerClosed:   r.Counter("eis_breaker_closed_total"),

		clientRetries: r.Counter("eis_client_retries_total"),
	}
}

var met = newEISMetrics(obs.Default())
