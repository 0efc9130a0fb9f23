package interval

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genI produces a random valid interval for quick.Check via a custom
// generator so bounds stay in a sane range.
type genI I

func (genI) Generate(r *rand.Rand, _ int) reflect.Value {
	a := r.Float64()*200 - 100
	b := r.Float64()*200 - 100
	return reflect.ValueOf(genI(FromBounds(a, b)))
}

func TestNewPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"reversed": func() { New(2, 1) },
		"nan-min":  func() { New(math.NaN(), 1) },
		"nan-max":  func() { New(0, math.NaN()) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestBasics(t *testing.T) {
	a := New(1, 3)
	if a.Width() != 2 {
		t.Errorf("Width = %v", a.Width())
	}
	if a.Mid() != 2 {
		t.Errorf("Mid = %v", a.Mid())
	}
	if e := Exact(5); e.Min != 5 || e.Max != 5 {
		t.Errorf("Exact(5) = %v", e)
	}
	if !a.Contains(1) || !a.Contains(3) || a.Contains(3.0001) {
		t.Error("Contains bounds wrong")
	}
}

func TestFromBounds(t *testing.T) {
	if got := FromBounds(3, 1); got != (I{1, 3}) {
		t.Errorf("FromBounds(3,1) = %v", got)
	}
	if got := FromBounds(1, 3); got != (I{1, 3}) {
		t.Errorf("FromBounds(1,3) = %v", got)
	}
}

func TestAddSubScale(t *testing.T) {
	a, b := New(1, 2), New(10, 20)
	if got := a.Add(b); got != (I{11, 22}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Scale(3); got != (I{3, 6}) {
		t.Errorf("Scale(3) = %v", got)
	}
	if got := a.Scale(-1); got != (I{-2, -1}) {
		t.Errorf("Scale(-1) = %v", got)
	}
}

func TestComplement(t *testing.T) {
	d := New(0.2, 0.5)
	c := d.Complement()
	if c != (I{0.5, 0.8}) {
		t.Errorf("Complement = %v", c)
	}
}

func TestWeightedSumMatchesEquations(t *testing.T) {
	// Replicates eq. 4/5: SC = L*w1 + A*w2 + (1-D)*w3 with exact values.
	l, a, d := New(0.6, 0.9), New(0.3, 0.5), New(0.1, 0.4)
	ws := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	sc := WeightedSum([]I{l, a, d.Complement()}, ws)
	wantMin := (0.6 + 0.3 + (1 - 0.4)) / 3
	wantMax := (0.9 + 0.5 + (1 - 0.1)) / 3
	if math.Abs(sc.Min-wantMin) > 1e-12 || math.Abs(sc.Max-wantMax) > 1e-12 {
		t.Errorf("SC = %v, want [%v, %v]", sc, wantMin, wantMax)
	}
}

func TestWeightedSumPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WeightedSum([]I{Exact(1)}, []float64{0.5, 0.5})
}

func TestNormalize(t *testing.T) {
	a := New(20, 60)
	if got := a.Normalize(100); got != (I{0.2, 0.6}) {
		t.Errorf("Normalize = %v", got)
	}
	// Values above max clamp to 1.
	if got := New(50, 200).Normalize(100); got != (I{0.5, 1}) {
		t.Errorf("Normalize clamp = %v", got)
	}
	if got := a.Normalize(0); got != (I{}) {
		t.Errorf("Normalize by 0 = %v, want zero interval", got)
	}
	if got := a.Normalize(-5); got != (I{}) {
		t.Errorf("Normalize by negative = %v, want zero interval", got)
	}
}

func TestClamp(t *testing.T) {
	if got := New(-1, 2).Clamp(0, 1); got != (I{0, 1}) {
		t.Errorf("Clamp = %v", got)
	}
	if got := New(0.2, 0.8).Clamp(0, 1); got != (I{0.2, 0.8}) {
		t.Errorf("Clamp identity = %v", got)
	}
}

// ----- property-based tests -----

func TestPropAddCommutative(t *testing.T) {
	f := func(x, y genI) bool { return I(x).Add(I(y)) == I(y).Add(I(x)) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropAddPreservesValidity(t *testing.T) {
	f := func(x, y genI) bool { return I(x).Add(I(y)).Valid() }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropScaleValid(t *testing.T) {
	f := func(x genI, s float64) bool {
		s = math.Mod(s, 1e6)
		if math.IsNaN(s) {
			s = 0
		}
		return I(x).Scale(s).Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Interval arithmetic must over-approximate: for any point values inside the
// operands, the pointwise result lies inside the interval result.
func TestPropAddEncloses(t *testing.T) {
	f := func(x, y genI, fx, fy float64) bool {
		fx, fy = frac(fx), frac(fy)
		px := I(x).Min + fx*I(x).Width()
		py := I(y).Min + fy*I(y).Width()
		return I(x).Add(I(y)).Contains(px + py)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropComplementInvolution(t *testing.T) {
	f := func(x genI) bool {
		c := I(x).Complement().Complement()
		return math.Abs(c.Min-I(x).Min) < 1e-9 && math.Abs(c.Max-I(x).Max) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func frac(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0.5
	}
	return math.Abs(math.Mod(v, 1))
}
