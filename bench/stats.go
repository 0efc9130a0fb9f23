package main

import (
	"math"
	"sort"
	"time"

	"ecocharge/internal/stats"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of an ascending sample by
// the nearest-rank rule: the smallest value with at least q of the sample
// at or below it. It never interpolates, so a reported latency is one that
// was observed. An empty sample yields 0.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median is the middle value, or the mean of the two middle ones; 0 for an
// empty sample.
func median(v []float64) float64 { return stats.Percentile(v, 50) }

// quartiles returns the first and third quartile by the exclusive method
// of Python's statistics.quantiles(v, n=4), which is what the acceptance
// check of the benchmark applies to ten runs. Fewer than two values have
// no spread: both quartiles are the value itself.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// millis and micros convert durations to the float samples the report keeps.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsToMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	sort.Float64s(out)
	return out
}

// ratio is a/b with 0 for an empty base, for per-operation counters.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
