package main

// metricDef names one reported number. Bound is the share of the base
// median by which an end-to-end metric may worsen before -compare calls it
// worse; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the fleet would see, one value per
// workload, measured with tracing off. BENCHMARK.json repeats this table
// and the smoke test holds the two together.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"capacity_rps", "1/s", "higher", 0.25},
	{"svc_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_op", "ms", "lower", 0.25},
	{"alloc_kb_op", "KB", "lower", 0.08},
	{"sc_pct", "%", "higher", 0.01},
	{"heap_mb", "MB", "lower", 0.10},
}

// sameSeedBound is the tighter bound of an end-to-end metric that repeats
// exactly for a seed. Across seeds sc_pct spreads by 0.2-0.3 % of its median
// (each seed has its own trips and cached cells), so the bound above, which
// must hold between runs of different seeds, cannot be the half point the
// metric deserves. Between two runs of the same seed there is no spread at
// all: -compare pairs such runs and applies this bound to the pairs.
var sameSeedBound = map[string]float64{"sc_pct": 0.005}

// perLayer are the single-layer numbers of the traced run, grouped by the
// module they time or count.
var perLayer = []metricDef{
	// load: what the generator saw and how well it kept its own schedule,
	// so a result can be told from an artefact. The two tails and the
	// open-loop median are here and not gated: on a shared host they move
	// by more than any bound between identical runs.
	{Name: "load.host_speed", Unit: "ratio", Better: "higher"},
	{Name: "load.raw_capacity_rps", Unit: "1/s", Better: "higher"},
	{Name: "load.raw_svc_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "load.raw_cpu_ms_op", Unit: "ms", Better: "lower"},
	{Name: "load.svc_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "load.open_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "load.open_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "load.open_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "load.gen_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "load.achieved_rps", Unit: "1/s", Better: "higher"},
	{Name: "load.late_share", Unit: "ratio", Better: "lower"},
	{Name: "load.fail_share", Unit: "ratio", Better: "lower"},
	{Name: "load.client_us", Unit: "us", Better: "lower"},
	{Name: "load.pregen_s", Unit: "s", Better: "lower"},
	// fleet: the gateway.
	{Name: "fleet.gateway_us", Unit: "us", Better: "lower"},
	{Name: "fleet.self_us", Unit: "us", Better: "lower"},
	{Name: "fleet.fanout_skew_us", Unit: "us", Better: "lower"},
	{Name: "fleet.decode_us", Unit: "us", Better: "lower"},
	{Name: "fleet.shard_requests_op", Unit: "count", Better: "lower"},
	{Name: "fleet.hedges_op", Unit: "count", Better: "lower"},
	{Name: "fleet.shard_failures", Unit: "count", Better: "lower"},
	// eis: one shard server.
	{Name: "eis.http_us", Unit: "us", Better: "lower"},
	{Name: "eis.http_self_us", Unit: "us", Better: "lower"},
	{Name: "eis.handler_hit_us", Unit: "us", Better: "lower"},
	{Name: "eis.handler_miss_us", Unit: "us", Better: "lower"},
	{Name: "eis.trip_handler_us", Unit: "us", Better: "lower"},
	{Name: "eis.self_miss_us", Unit: "us", Better: "lower"},
	{Name: "eis.rescache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "eis.rescache_evictions_op", Unit: "count", Better: "lower"},
	{Name: "eis.computes_op", Unit: "count", Better: "lower"},
	{Name: "eis.coalesced_op", Unit: "count", Better: "higher"},
	// wire: both codecs on the bodies the sample actually exchanged.
	{Name: "wire.enc_req_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.dec_req_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.enc_resp_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.dec_resp_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.json_enc_resp_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.json_dec_resp_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.trip_json_dec_us", Unit: "us", Better: "lower"},
	{Name: "wire.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.json_resp_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.trip_json_bytes", Unit: "B", Better: "lower"},
	// cknn: the ranking engine.
	{Name: "cknn.rank_miss_us", Unit: "us", Better: "lower"},
	{Name: "cknn.rank_adapt_us", Unit: "us", Better: "lower"},
	{Name: "cknn.trip_us", Unit: "us", Better: "lower"},
	{Name: "cknn.self_us", Unit: "us", Better: "lower"},
	{Name: "cknn.brute_us", Unit: "us", Better: "lower"},
	{Name: "cknn.adapt_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cknn.candidates_op", Unit: "count", Better: "lower"},
	{Name: "cknn.evaluated_op", Unit: "count", Better: "lower"},
	{Name: "cknn.prune_ratio", Unit: "ratio", Better: "higher"},
	// roadnet: the shortest-path kernel.
	{Name: "roadnet.expand_us", Unit: "us", Better: "lower"},
	{Name: "roadnet.path_us", Unit: "us", Better: "lower"},
	{Name: "roadnet.nearest_us", Unit: "us", Better: "lower"},
	{Name: "roadnet.expansions_op", Unit: "count", Better: "lower"},
	{Name: "roadnet.settled_op", Unit: "count", Better: "lower"},
	{Name: "roadnet.early_term_ratio", Unit: "ratio", Better: "higher"},
	{Name: "roadnet.pool_news", Unit: "count", Better: "lower"},
	// spatial and ec: candidate retrieval and the component forecasts.
	{Name: "spatial.within_us", Unit: "us", Better: "lower"},
	{Name: "spatial.candidates", Unit: "count", Better: "lower"},
	{Name: "ec.forecast_us", Unit: "us", Better: "lower"},
	// trace: how well the replayed stages account for the request.
	{Name: "trace.reconcile_ratio", Unit: "ratio", Better: "higher"},
}

// value is one measured metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and hands them out in definition
// order with their units.
type metricSet map[string]float64

func (m metricSet) values(defs []metricDef) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}
