// Package interval implements the closed-interval arithmetic that backs the
// Estimated Components of the paper. Every EC (sustainable charging level L,
// availability A, derouting cost D) is a fuzzy value expressed as a
// [min, max] range; the Sustainability Score combines such ranges with
// weighted sums (paper §III.B, eqs. 4–5), and the refinement phase ranks
// their bounds (eq. 6).
package interval

import (
	"fmt"
	"math"
)

// I is a closed interval [Min, Max]. The zero value is the degenerate
// interval [0, 0], which is a valid exact value.
type I struct {
	Min, Max float64
}

// New returns the interval [min, max]. It panics if min > max or either
// bound is NaN, because such an interval is a programming error everywhere
// in this codebase (estimates always have ordered bounds).
func New(min, max float64) I {
	if math.IsNaN(min) || math.IsNaN(max) {
		panic("interval: NaN bound")
	}
	if min > max {
		panic(fmt.Sprintf("interval: min %v > max %v", min, max))
	}
	return I{Min: min, Max: max}
}

// Exact returns the degenerate interval [v, v].
func Exact(v float64) I { return I{Min: v, Max: v} }

// FromBounds returns the interval spanning a and b regardless of order.
// Use it when the bounds come from two independent estimates that may
// cross (e.g. optimistic vs pessimistic models that are not ordered a priori).
// Like New it panics on NaN: before this check a NaN bound slipped through
// the ordering test (NaN compares false) and produced an invalid interval.
func FromBounds(a, b float64) I {
	if math.IsNaN(a) || math.IsNaN(b) {
		panic("interval: NaN bound")
	}
	if a <= b {
		return I{Min: a, Max: b}
	}
	return I{Min: b, Max: a}
}

// String implements fmt.Stringer.
func (a I) String() string { return fmt.Sprintf("[%.4g, %.4g]", a.Min, a.Max) }

// Valid reports whether the interval has ordered, non-NaN bounds.
func (a I) Valid() bool {
	return !math.IsNaN(a.Min) && !math.IsNaN(a.Max) && a.Min <= a.Max
}

// Width returns Max − Min, the uncertainty of the estimate.
func (a I) Width() float64 { return a.Max - a.Min }

// Mid returns the interval midpoint, the natural point estimate.
func (a I) Mid() float64 { return (a.Min + a.Max) / 2 }

// Contains reports whether v lies within [Min, Max].
func (a I) Contains(v float64) bool { return v >= a.Min && v <= a.Max }

// Add returns a + b under interval arithmetic.
func (a I) Add(b I) I { return I{Min: a.Min + b.Min, Max: a.Max + b.Max} }

// Scale returns the interval multiplied by scalar s; a negative s flips the
// bounds, preserving Min ≤ Max.
func (a I) Scale(s float64) I {
	if s >= 0 {
		return I{Min: a.Min * s, Max: a.Max * s}
	}
	return I{Min: a.Max * s, Max: a.Min * s}
}

// Complement returns 1 − a, the transform the SC formula applies to the
// normalized derouting cost so that all objectives are maximized.
func (a I) Complement() I { return I{Min: 1 - a.Max, Max: 1 - a.Min} }

// Clamp returns a restricted to [lo, hi]. Both bounds are clamped; the
// result is always valid because lo ≤ hi is required of callers.
func (a I) Clamp(lo, hi float64) I {
	return I{Min: clamp(a.Min, lo, hi), Max: clamp(a.Max, lo, hi)}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// WeightedSum combines intervals with the given weights:
// Σ w_i · x_i, the exact form of eqs. 4–5. It panics when the slices have
// different lengths.
func WeightedSum(xs []I, ws []float64) I {
	if len(xs) != len(ws) {
		panic(fmt.Sprintf("interval: WeightedSum length mismatch %d vs %d", len(xs), len(ws)))
	}
	var out I
	for i, x := range xs {
		out = out.Add(x.Scale(ws[i]))
	}
	return out
}

// Normalize divides the interval by the positive scalar max, producing a
// value in [0,1] when the input lies in [0, max]. A non-positive or
// infinite max yields the exact zero interval, which is the safe answer
// for an empty environment (no chargers, zero maximum production).
//
// The bounds are divided directly rather than scaled by 1/max: for
// subnormal max the reciprocal overflows to +Inf and 0·Inf injected a NaN
// bound (caught by FuzzOps' pinned seed).
func (a I) Normalize(max float64) I {
	if max <= 0 || math.IsInf(max, 1) {
		return I{}
	}
	return I{Min: a.Min / max, Max: a.Max / max}.Clamp(0, 1)
}
