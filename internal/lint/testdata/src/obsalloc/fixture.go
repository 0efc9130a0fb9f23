// Package fixture exercises the obsalloc analyzer: the file poses as part
// of internal/cknn (see the import path in lint_test.go), where metric
// names handed to the obs registry must be compile-time constants.
package fixture

import "fmt"

// Registry mirrors the real obs.Registry surface the analyzer matches on.
type Registry struct{}

func (r *Registry) Counter(name string) *Counter   { return nil }
func (r *Registry) Gauge(name string) *Gauge       { return nil }
func (r *Registry) Histogram(name string) *Hist    { return nil }
func (r *Registry) Unrelated(name string) *Counter { return nil }

type (
	Counter struct{}
	Gauge   struct{}
	Hist    struct{}
)

const prefix = "cknn_"

// GoodConstantNames is the intended shape: every name folds at compile time.
func GoodConstantNames(r *Registry) {
	r.Counter("cknn_evaluated_total")
	r.Gauge(prefix + "cache_slots")
	r.Histogram("cknn_filter_seconds")
}

// BadSprintfName is the canonical smell: a per-call formatted name.
func BadSprintfName(r *Registry, shard int) {
	r.Counter(fmt.Sprintf("cknn_shard_%d_hits_total", shard)) // flagged
}

// BadDynamicConcat builds the name from a variable: flagged on all three
// constructors.
func BadDynamicConcat(r *Registry, kind string) {
	r.Counter(prefix + kind + "_total")
	r.Gauge("cknn_" + kind)
	r.Histogram(kind)
}

// GoodOtherReceiver shows that only Registry receivers are matched.
type NameBag struct{}

func (NameBag) Counter(name string) *Counter { return nil }

func GoodOtherReceiver(b NameBag, kind string) {
	b.Counter(fmt.Sprintf("free_form_%s", kind))
}

// GoodOtherMethod shows that non-constructor methods are not matched.
func GoodOtherMethod(r *Registry, kind string) {
	r.Unrelated(fmt.Sprintf("lookup_%s", kind))
}

// SuppressedWitness stands in for a deliberate dynamic name with the escape
// hatch documenting why.
func SuppressedWitness(r *Registry, dataset string) {
	//ecolint:ignore obsalloc bounded cardinality: one gauge per benchmark dataset, built at startup
	r.Gauge("bench_" + dataset + "_rows")
}
