package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// LogHistogram counts durations into log-linear (HDR-style) buckets over
// the full int64-nanosecond range: every power of two is subdivided into
// logSubCount linear sub-buckets, so the relative quantization error is
// bounded by 1/logSubCount (~3.1%) at every magnitude from nanoseconds to
// hours. That is what the fixed-bucket Histogram cannot do — its 16 bounds
// resolve a p50 fine but collapse the tail, and a p999 read from it is a
// bucket-edge artifact. The load harness records open-loop latency here.
//
// Observe is two shifts plus two atomic adds — zero allocations, no
// locks — and a nil *LogHistogram discards observations, matching the
// registry's nil-receiver contract.
type LogHistogram struct {
	counts [logBucketCount]atomic.Uint64
	count  atomic.Uint64
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
)

// NewLogHistogram returns an empty histogram. The zero value is also
// ready to use; the constructor exists for symmetry with the pooled
// harness code that embeds one per rate step.
func NewLogHistogram() *LogHistogram { return &LogHistogram{} }

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
func (h *LogHistogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[logBucketIndex(v)].Add(1)
	h.count.Add(1)
}

// Count returns the number of observations; 0 on nil.
func (h *LogHistogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile returns the q-th order statistic (q in [0,1]) as the upper
// bound of the bucket holding it: the estimate e of a true sample t
// satisfies t ≤ e ≤ t·(1+2^-logSubBits)+1ns. Returns 0 on an empty or nil
// histogram. Concurrent Observes may land between bucket reads; callers
// wanting an exact cut read after their run step completes.
func (h *LogHistogram) Quantile(q float64) time.Duration {
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
