// Package obs is the repo's stdlib-only observability layer: an atomic
// metrics registry (counters, gauges, log-linear latency histograms),
// lightweight span tracing with context propagation, and text/JSON
// exposition for the EIS's /metrics and /debug/vars endpoints.
//
// The design contract mirrors the flat-kernel discipline of DESIGN.md §8:
// metric updates on the ranking hot path are single atomic operations with
// zero allocations (proven by testing.AllocsPerRun), and every handle is
// nil-receiver safe so a disabled registry costs one predictable branch.
// Registration (Counter/Gauge/Histogram lookups by name) takes a lock and
// may allocate — it belongs in package init or constructor code, never
// inside ranking loops; the obsalloc ecolint check additionally forbids
// fmt.Sprintf-built metric names in the hot packages.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is usable;
// a nil *Counter discards updates, so instrumentation sites never branch on
// configuration.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Nil counters discard.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous integer level (pool occupancy, live entries,
// breaker state). A nil *Gauge discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the level.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the level by delta (negative deltas decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current level; 0 on a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds named metrics and renders them. The zero value of
// *Registry (nil) is the disabled registry: every lookup returns a nil
// handle whose updates are discarded, which is what BenchmarkObsOverhead
// compares the instrumented engine against.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide registry every instrumented package
// registers into; the EIS exposes it at /metrics and /debug/vars, and the
// repository benchmark (bench/) snapshots it for its per-layer table.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use. Lookups are
// idempotent: the same name always yields the same handle. A nil registry
// returns a nil (discarding) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// names returns the sorted metric names of one kind; callers hold no lock.
func sortedKeys[M any](m map[string]M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
