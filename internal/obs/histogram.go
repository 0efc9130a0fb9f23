package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// DurationBuckets are the default latency bucket upper bounds in seconds:
// exponential-ish coverage from 100 µs (a cached table lookup) to 10 s (a
// brute-force expansion on the largest profile). Values above the last
// bound land in the implicit +Inf bucket.
func DurationBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// Histogram counts observations into fixed buckets. Observe is a bounded
// linear scan plus two atomic updates — zero allocations, no locks — so it
// is safe on the ranking hot path. Bucket bounds are immutable after
// construction. A nil *Histogram discards observations.
type Histogram struct {
	bounds []float64       // ascending upper bounds
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // math.Float64bits of the running sum
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DurationBuckets()
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. NaN observations are dropped (they would
// poison the sum and match no bucket).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Since records the seconds elapsed since t0; the idiomatic phase-duration
// form: defer h.Since(time.Now()) does not work (the argument would be
// evaluated late), so call sites use start := time.Now(); ...; h.Since(start).
func (h *Histogram) Since(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations; 0 on nil.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running sum of observed values; 0 on nil.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshotBuckets returns the cumulative per-bucket counts aligned with
// bounds plus the +Inf bucket (the exposition format is cumulative, like
// the Prometheus text format this mimics).
func (h *Histogram) snapshotBuckets() []uint64 {
	out := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}
