package interval_test

import (
	"math"
	"testing"

	"ecocharge/internal/interval"
)

// FuzzFromBounds checks the constructor's contract over the whole float64
// domain: NaN bounds must panic, everything else must yield a valid
// interval spanning both inputs.
func FuzzFromBounds(f *testing.F) {
	f.Add(0.0, 1.0)
	f.Add(1.0, 0.0)
	f.Add(-1.5, -1.5)
	f.Add(math.Inf(-1), math.Inf(1))
	f.Add(math.NaN(), 0.0)
	f.Fuzz(func(t *testing.T, a, b float64) {
		if math.IsNaN(a) || math.IsNaN(b) {
			defer func() {
				if recover() == nil {
					t.Errorf("FromBounds(%v, %v) accepted a NaN bound", a, b)
				}
			}()
			interval.FromBounds(a, b)
			return
		}
		iv := interval.FromBounds(a, b)
		if !iv.Valid() {
			t.Fatalf("FromBounds(%v, %v) = %v is invalid", a, b, iv)
		}
		if iv.Min != math.Min(a, b) || iv.Max != math.Max(a, b) {
			t.Errorf("FromBounds(%v, %v) = %v, want [%v, %v]", a, b, iv, math.Min(a, b), math.Max(a, b))
		}
		if !iv.Contains(a) || !iv.Contains(b) {
			t.Errorf("FromBounds(%v, %v) = %v does not span its inputs", a, b, iv)
		}
	})
}

// FuzzOps drives the interval algebra with finite inputs and checks that
// no operation lets a NaN or inverted interval escape. Finite bounds are
// the EC domain (scores are normalized into [0, 1]); infinities can
// legitimately produce NaN via Inf-Inf and are exercised separately above.
func FuzzOps(f *testing.F) {
	f.Add(0.0, 1.0, 0.25, 0.75, 2.0)
	f.Add(-5.0, 3.0, -2.0, 8.0, -1.5)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(1e300, 1e308, -1e308, -1e300, 1e10)
	// Regression: subnormal normalizer used to overflow 1/max to +Inf and
	// produce a [NaN, 1] interval via 0·Inf in Scale.
	f.Add(0.0, 1.0, 0.0, 1.0, 1e-320)
	f.Fuzz(func(t *testing.T, a1, a2, b1, b2, s float64) {
		for _, v := range []float64{a1, a2, b1, b2, s} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("finite-domain fuzz")
			}
		}
		a := interval.FromBounds(a1, a2)
		b := interval.FromBounds(b1, b2)

		check := func(op string, iv interval.I) {
			t.Helper()
			if !iv.Valid() {
				t.Errorf("%s(%v, %v; s=%v) = %v is invalid", op, a, b, s, iv)
			}
		}
		check("Add", a.Add(b))
		check("Scale", a.Scale(s))
		check("Complement", a.Complement())
		check("Clamp", a.Clamp(interval.FromBounds(b1, b2).Min, interval.FromBounds(b1, b2).Max))
		check("Normalize", a.Normalize(s))

		norm := a.Normalize(s)
		if s > 0 && (norm.Min < 0 || norm.Max > 1) {
			t.Errorf("Normalize(%v, %v) = %v escapes [0, 1]", a, s, norm)
		}
		if math.IsNaN(a.Mid()) || math.IsNaN(a.Width()) {
			t.Errorf("Mid/Width of %v produced NaN", a)
		}
	})
}
