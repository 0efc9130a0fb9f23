package load

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

// scheduleBytes serializes a schedule so determinism can be asserted as
// byte identity, not just value equality.
func scheduleBytes(s Schedule) []byte {
	out := make([]byte, 8*len(s))
	for i, d := range s {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(d))
	}
	return out
}

// TestPoissonDeterministic: same (rate, n, seed) ⇒ byte-identical
// schedule, different seed ⇒ different schedule. The whole harness's
// reproducibility rests on this.
func TestPoissonDeterministic(t *testing.T) {
	check := func(seed int64) bool {
		a, err1 := Poisson(200, 500, seed)
		b, err2 := Poisson(200, 500, seed)
		if err1 != nil || err2 != nil {
			return false
		}
		return string(scheduleBytes(a)) == string(scheduleBytes(b))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	a, _ := Poisson(200, 500, 1)
	b, _ := Poisson(200, 500, 2)
	if string(scheduleBytes(a)) == string(scheduleBytes(b)) {
		t.Fatal("different seeds produced the identical schedule")
	}
}

// TestScheduleMonotone: offsets ascend strictly (Poisson) or strictly
// (constant); arrivals never go back in time.
func TestScheduleMonotone(t *testing.T) {
	p, err := Poisson(1000, 5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Constant(1000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Schedule{p, c} {
		for i := 1; i < len(s); i++ {
			if s[i] < s[i-1] {
				t.Fatalf("offset %d (%v) before offset %d (%v)", i, s[i], i-1, s[i-1])
			}
		}
	}
}

// realizedRate is n arrivals over the offset of the last one.
func realizedRate(s Schedule) float64 {
	return float64(len(s)) / s[len(s)-1].Seconds()
}

// TestRateAccuracy: the realized rate of a schedule stays within
// tolerance of nominal. For a Poisson process the span of n arrivals is
// Gamma(n, 1/λ) with relative standard deviation 1/√n, so 5% at n=10000
// is a ~5σ bound — deterministic seeds make this a regression test, not a
// flake.
func TestRateAccuracy(t *testing.T) {
	const n, nominal = 10000, 400.0
	for seed := int64(0); seed < 5; seed++ {
		s, err := Poisson(nominal, n, seed)
		if err != nil {
			t.Fatal(err)
		}
		if r := realizedRate(s); math.Abs(r-nominal)/nominal > 0.05 {
			t.Fatalf("seed %d: realized rate %.1f/s, want %.0f/s ±5%%", seed, r, nominal)
		}
	}
	c, err := Constant(nominal, n)
	if err != nil {
		t.Fatal(err)
	}
	if r := realizedRate(c); math.Abs(r-nominal)/nominal > 1e-6 {
		t.Fatalf("constant schedule realized %.4f/s, want exactly %.0f/s", r, nominal)
	}
}

// TestScheduleArgValidation covers the error paths.
func TestScheduleArgValidation(t *testing.T) {
	if _, err := Poisson(0, 10, 1); err == nil {
		t.Fatal("rate 0 accepted")
	}
	if _, err := Constant(100, 0); err == nil {
		t.Fatal("n 0 accepted")
	}
}
