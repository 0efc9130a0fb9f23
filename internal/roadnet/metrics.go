package roadnet

import "ecocharge/internal/obs"

// kernelMetrics are the package's instrumentation handles, resolved once at
// init so the expansion hot path pays a single atomic op per update (0
// allocs/op; priced end-to-end by BenchmarkObsOverhead). Metric names are
// constants — the obsalloc ecolint check rejects fmt.Sprintf-built names in
// this package.
type kernelMetrics struct {
	expansions   *obs.Counter // bounded network expansions started
	poolAcquires *obs.Counter // search states checked out of the pool
	poolNews     *obs.Counter // pool misses: fresh searchState allocations
	poolReleases *obs.Counter // states returned to the pool

	// Many-target expansions (ExpandToMany and its reverse form): how much
	// of the travel-time ball the target-aware truncation actually touches.
	manyExpansions     *obs.Counter // many-target expansions started
	manyTargetsSettled *obs.Counter // targets settled across many-target runs
	manySettled        *obs.Counter // nodes settled (touched) by many-target runs
	manyEarlyTerms     *obs.Counter // runs cut short before exhausting the frontier

	// heapFallbacks counts the distance-only expansions the bucket ring
	// declined (flat.go, ringFor) and the heap ran instead.
	heapFallbacks *obs.Counter
}

func newKernelMetrics(r *obs.Registry) *kernelMetrics {
	return &kernelMetrics{
		expansions:         r.Counter("roadnet_expansions_total"),
		poolAcquires:       r.Counter("roadnet_pool_acquires_total"),
		poolNews:           r.Counter("roadnet_pool_news_total"),
		poolReleases:       r.Counter("roadnet_pool_releases_total"),
		manyExpansions:     r.Counter("roadnet_many_expansions_total"),
		manyTargetsSettled: r.Counter("roadnet_many_targets_settled_total"),
		manySettled:        r.Counter("roadnet_many_nodes_settled_total"),
		manyEarlyTerms:     r.Counter("roadnet_many_early_terminations_total"),
		heapFallbacks:      r.Counter("roadnet_heap_fallback_total"),
	}
}

var met = newKernelMetrics(obs.Default())
