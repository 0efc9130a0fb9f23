package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// logHistMaxRelErr is the quantization guarantee under test: a reported
// quantile never under-states the true order statistic and over-states it
// by at most one sub-bucket width (2^-logSubBits = 3.125%), plus 1 ns for
// the inclusive-bound rounding.
const logHistMaxRelErr = 1.0 / logSubCount

// exactQuantile is the sorted-sample oracle with the same rank definition
// Quantile uses: the ceil(q·n)-th smallest sample (1-based).
func exactQuantile(sorted []time.Duration, q float64) time.Duration {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestLogHistogramQuantileOracle drives random latency distributions
// through the histogram and checks every reported quantile against the
// exact sorted-sample oracle within the quantization bound — the
// correctness contract the load harness's p50/p99/p999 numbers rest on.
func TestLogHistogramQuantileOracle(t *testing.T) {
	quantiles := []float64{0, 0.5, 0.9, 0.99, 0.999, 1}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5000)
		// Mix three regimes so one run spans several orders of magnitude:
		// microsecond-scale service times, millisecond bulk, and a heavy
		// seconds-scale tail (the shape an overloaded open-loop run records).
		samples := make([]time.Duration, n)
		h := &Histogram{}
		for i := range samples {
			var d time.Duration
			switch rng.Intn(3) {
			case 0:
				d = time.Duration(rng.Int63n(int64(50 * time.Microsecond)))
			case 1:
				d = time.Duration(float64(5*time.Millisecond) * rng.ExpFloat64())
			default:
				d = time.Duration(float64(time.Second) * math.Pow(rng.Float64(), 4))
			}
			samples[i] = d
			h.Observe(d)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		for _, q := range quantiles {
			got, want := h.Quantile(q), exactQuantile(samples, q)
			if got < want {
				t.Logf("seed %d q=%v: estimate %v below true %v", seed, q, got, want)
				return false
			}
			if float64(got) > float64(want)*(1+logHistMaxRelErr)+1 {
				t.Logf("seed %d q=%v: estimate %v exceeds true %v beyond the %.2f%% bound",
					seed, q, got, want, 100*logHistMaxRelErr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestLogHistogramBucketLayout pins the index/bound round trip: every
// value lands in a bucket whose bound is ≥ the value and within one
// sub-bucket width of it, indexes are monotone, and the extremes of the
// uint64 range stay inside the fixed array.
func TestLogHistogramBucketLayout(t *testing.T) {
	vals := []uint64{0, 1, 31, 32, 63, 64, 65, 127, 128, 1023, 1 << 20, 1<<20 + 3,
		uint64(time.Second), uint64(time.Hour), 1 << 62, math.MaxInt64, math.MaxUint64}
	prev := -1
	for _, v := range vals {
		idx := logBucketIndex(v)
		if idx < 0 || idx >= logBucketCount {
			t.Fatalf("value %d: index %d outside [0,%d)", v, idx, logBucketCount)
		}
		if idx < prev {
			t.Fatalf("value %d: index %d not monotone (previous %d)", v, idx, prev)
		}
		prev = idx
		bound := logBucketBound(idx)
		if bound < v {
			t.Fatalf("value %d: bucket bound %d below the value", v, bound)
		}
		if v >= 2*logSubCount && float64(bound) > float64(v)*(1+logHistMaxRelErr)+1 {
			t.Fatalf("value %d: bucket bound %d beyond the %.2f%% width bound", v, bound, 100*logHistMaxRelErr)
		}
		if idx > 0 && logBucketBound(idx-1) >= v {
			t.Fatalf("value %d: previous bucket %d already covers it (bound %d)", v, idx-1, logBucketBound(idx-1))
		}
	}
}

// TestLogHistogramEdges covers the nil/empty/degenerate contract.
func TestLogHistogramEdges(t *testing.T) {
	var nilH *Histogram
	nilH.Observe(time.Second) // must not panic
	nilH.Since(time.Now())
	if nilH.Quantile(0.5) != 0 || nilH.Count() != 0 || nilH.Sum() != 0 {
		t.Fatal("nil histogram must read as empty")
	}
	h := &Histogram{}
	if h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram must report 0")
	}
	h.Observe(-time.Second) // clock step: clamps to 0, still counted
	if h.Count() != 1 || h.Quantile(1) != 0 || h.Sum() != 0 {
		t.Fatalf("negative observation: count=%d q1=%v sum=%v, want 1, 0 and 0", h.Count(), h.Quantile(1), h.Sum())
	}
}
