package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram counts durations into log-linear (HDR-style) buckets over the
// full int64-nanosecond range: every power of two is subdivided into
// logSubCount linear sub-buckets, so the relative quantization error is
// bounded by 1/logSubCount (~3.1%) at every magnitude from nanoseconds to
// hours. The sum is kept exactly, in integer nanoseconds.
//
// Observe is two shifts plus three atomic adds — zero allocations, no
// locks — so it is safe on the ranking hot path. The zero value is ready
// to use, and a nil *Histogram discards observations.
type Histogram struct {
	counts [logBucketCount]atomic.Uint64
	count  atomic.Uint64
	sumNs  atomic.Uint64
}

const (
	// logSubBits sets the linear subdivision of each power of two:
	// 2^logSubBits sub-buckets per octave bound the relative error of any
	// reported quantile by 2^-logSubBits.
	logSubBits  = 5
	logSubCount = 1 << logSubBits

	// logBucketCount covers the whole uint64 range: values below
	// 2*logSubCount map one-to-one (exact), every further octave adds
	// logSubCount buckets. The top index is reached at v = 2^64-1:
	// shift = 64-logSubBits-1 = 58, index = 58*32 + 63 = 1919.
	logBucketCount = (64-logSubBits-1)*logSubCount + 2*logSubCount

	// The exposition's le edges are 2^k−1 ns for k in [expoMinOctave,
	// expoMaxOctave]: 65.5 µs to 17.2 s. Each is the last bucket bound of
	// an octave, so each line counts exactly the observations at or below
	// it, and the same edges on every process let lines sum across shards.
	expoMinOctave = 16
	expoMaxOctave = 34
)

// logBucketIndex maps a non-negative nanosecond value to its bucket.
func logBucketIndex(v uint64) int {
	if v < 2*logSubCount {
		return int(v) // exact: one bucket per nanosecond below 64 ns
	}
	// shift brings v into [logSubCount, 2*logSubCount).
	shift := bits.Len64(v) - logSubBits - 1
	return shift*logSubCount + int(v>>shift)
}

// logBucketBound returns the largest value a bucket holds (its inclusive
// upper bound), which Quantile reports: estimates never under-state the
// true order statistic and over-state it by at most one sub-bucket width.
func logBucketBound(idx int) uint64 {
	if idx < 2*logSubCount {
		return uint64(idx)
	}
	shift := idx/logSubCount - 1
	m := uint64(idx - shift*logSubCount)
	return (m+1)<<shift - 1
}

// Observe records one duration. Negative durations clamp to zero (they
// can only come from clock steps; dropping them would hide the step).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[logBucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(v)
}

// Since records the time elapsed since t0; the idiomatic phase-duration
// form: defer h.Since(time.Now()) does not work (the argument would be
// evaluated late), so call sites use start := time.Now(); ...; h.Since(start).
func (h *Histogram) Since(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0))
}

// Count returns the number of observations; 0 on nil.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running sum of observed durations in seconds; 0 on nil.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumNs.Load()) / 1e9
}

// expoEdge is the i-th exposition edge in nanoseconds.
func expoEdge(i int) uint64 { return 1<<(expoMinOctave+i) - 1 }

// expoCounts returns the cumulative count at each exposition edge, then
// the count over every bucket (the +Inf line).
func (h *Histogram) expoCounts() [expoMaxOctave - expoMinOctave + 2]uint64 {
	var out [expoMaxOctave - expoMinOctave + 2]uint64
	var cum uint64
	next := 0
	for i := range out[:len(out)-1] {
		for last := logBucketIndex(expoEdge(i)); next <= last; next++ {
			cum += h.counts[next].Load()
		}
		out[i] = cum
	}
	for ; next < logBucketCount; next++ {
		cum += h.counts[next].Load()
	}
	out[len(out)-1] = cum
	return out
}

// Quantile returns the q-th order statistic (q in [0,1]) as the upper
// bound of the bucket holding it: the estimate e of a true sample t
// satisfies t ≤ e ≤ t·(1+2^-logSubBits)+1ns. Returns 0 on an empty or nil
// histogram. Concurrent Observes may land between bucket reads; callers
// wanting an exact cut read after their run step completes.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			return time.Duration(logBucketBound(i))
		}
	}
	// Concurrent observers raced count ahead of the buckets; report the
	// highest populated bound seen.
	for i := len(h.counts) - 1; i >= 0; i-- {
		if h.counts[i].Load() > 0 {
			return time.Duration(logBucketBound(i))
		}
	}
	return 0
}
