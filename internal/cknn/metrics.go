package cknn

import "ecocharge/internal/obs"

// engineMetrics bundles the package's hot-path instrumentation handles.
// Handles are resolved once at package init — metric registration takes a
// lock and belongs off the ranking path — and every update below is a
// single atomic op (0 allocs/op, proven by the obs package and by
// BenchmarkObsOverhead on the full EcoCharge method). Names are constants:
// the obsalloc ecolint check rejects fmt.Sprintf-built metric names here.
type engineMetrics struct {
	// Filtering/refinement phase durations per Rank call (Alg. 1's two
	// phases).
	filterSeconds *obs.Histogram
	refineSeconds *obs.Histogram

	// Filtering-phase outcome counters: every candidate lands in exactly one,
	// added once per pass over a pool (evalPool).
	pruneRejected *obs.Counter // optimistic bound could not enter the top-k
	evaluated     *obs.Counter // full EC evaluation performed
	unreachable   *obs.Counter // outside the expansion bound

	// Degraded-component tags emitted by evaluate/adapt (one per entry
	// whose source failed, per component).
	degradedL *obs.Counter
	degradedA *obs.Counter
	degradedD *obs.Counter

	// Dynamic-cache traffic (§IV.C): hits are adapted tables, misses computed.
	cacheHits          *obs.Counter
	cacheMisses        *obs.Counter
	cacheStores        *obs.Counter
	cacheInvalidations *obs.Counter
	cacheAdaptDropped  *obs.Counter // cached entries that drifted out of R on adapt

	// DeroutingMaps construction and release (each exact computation runs
	// four pooled expansions, each approximation two; half that when the
	// return leg aliases the outbound one). Batched computations
	// also count their targets, so targets-per-computation and (with the
	// roadnet_many_* counters) settled-nodes-per-target are derivable.
	deroutExact    *obs.Counter
	deroutApprox   *obs.Counter
	deroutBatched  *obs.Counter
	deroutTargets  *obs.Counter
	deroutReleases *obs.Counter
}

func newEngineMetrics(r *obs.Registry) *engineMetrics {
	return &engineMetrics{
		filterSeconds:      r.Histogram("cknn_filter_seconds", nil),
		refineSeconds:      r.Histogram("cknn_refine_seconds", nil),
		pruneRejected:      r.Counter("cknn_prune_rejected_total"),
		evaluated:          r.Counter("cknn_evaluated_total"),
		unreachable:        r.Counter("cknn_unreachable_total"),
		degradedL:          r.Counter("cknn_degraded_l_total"),
		degradedA:          r.Counter("cknn_degraded_a_total"),
		degradedD:          r.Counter("cknn_degraded_d_total"),
		cacheHits:          r.Counter("cknn_cache_hits_total"),
		cacheMisses:        r.Counter("cknn_cache_misses_total"),
		cacheStores:        r.Counter("cknn_cache_stores_total"),
		cacheInvalidations: r.Counter("cknn_cache_invalidations_total"),
		cacheAdaptDropped:  r.Counter("cknn_cache_adapt_dropped_total"),
		deroutExact:        r.Counter("cknn_derouting_exact_total"),
		deroutApprox:       r.Counter("cknn_derouting_approx_total"),
		deroutBatched:      r.Counter("cknn_derouting_batched_total"),
		deroutTargets:      r.Counter("cknn_derouting_targets_total"),
		deroutReleases:     r.Counter("cknn_derouting_releases_total"),
	}
}

// met is the package's live instrumentation. BenchmarkObsOverhead swaps it
// for newEngineMetrics(nil) — all-discarding handles — to price the
// instrumentation against the disabled path.
var met = newEngineMetrics(obs.Default())

// countDegraded tags the component counters for one emitted entry.
func countDegraded(deg Degraded) {
	if deg == 0 {
		return
	}
	if deg.Has(CompL) {
		met.degradedL.Inc()
	}
	if deg.Has(CompA) {
		met.degradedA.Inc()
	}
	if deg.Has(CompD) {
		met.degradedD.Inc()
	}
}
