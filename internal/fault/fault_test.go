package fault

import (
	"math"
	"testing"
	"time"

	"ecocharge/internal/cknn"
)

func TestDecideDeterministic(t *testing.T) {
	in := New(Config{Seed: 42, Rate: 0.3})
	for i := uint64(0); i < 200; i++ {
		a := in.Decide(i, i*7)
		b := in.Decide(i, i*7)
		if a != b {
			t.Fatalf("Decide not pure for keys (%d,%d): %+v vs %+v", i, i*7, a, b)
		}
	}
}

func TestDecideSeedsDiffer(t *testing.T) {
	a := New(Config{Seed: 1, Rate: 0.5})
	b := New(Config{Seed: 2, Rate: 0.5})
	same := 0
	const n = 512
	for i := uint64(0); i < n; i++ {
		if a.Decide(i).Fail == b.Decide(i).Fail {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical fault realizations")
	}
}

func TestDecideRateEmpirical(t *testing.T) {
	for _, rate := range []float64{0, 0.1, 0.3, 1} {
		in := New(Config{Seed: 7, Rate: rate})
		fails := 0
		const n = 4000
		for i := uint64(0); i < n; i++ {
			if in.Decide(i).Fail {
				fails++
			}
		}
		got := float64(fails) / n
		if math.Abs(got-rate) > 0.03 {
			t.Errorf("rate %.2f: empirical failure fraction %.3f", rate, got)
		}
	}
}

func TestZeroConfigNeverFails(t *testing.T) {
	in := New(Config{Seed: 99})
	for i := uint64(0); i < 1000; i++ {
		if d := in.Decide(i); d.Fail || d.Latency != 0 {
			t.Fatalf("zero-rate config injected %+v for key %d", d, i)
		}
	}
}

func TestBlackoutWindows(t *testing.T) {
	inj := New(Config{Seed: 3, Blackouts: []Window{{From: 2, To: 4}}})
	if in(inj.cfg.Blackouts, inj.Tick()) {
		t.Fatal("tick 0 should be clear")
	}
	if d := inj.Decide(1); d.Fail {
		t.Fatal("decision failed outside blackout with rate 0")
	}
	inj.Advance(2) // tick 2: inside
	if !in(inj.cfg.Blackouts, inj.Tick()) {
		t.Fatal("tick 2 should be in blackout")
	}
	if d := inj.Decide(1); !d.Fail {
		t.Fatal("decision succeeded inside blackout")
	}
	inj.Advance(2) // tick 4: half-open upper bound is exclusive
	if in(inj.cfg.Blackouts, inj.Tick()) {
		t.Fatal("tick 4 should be clear (half-open window)")
	}
	if d := inj.Decide(1); d.Fail {
		t.Fatal("decision failed after blackout ended")
	}
}

func TestConfigClamped(t *testing.T) {
	in := New(Config{Seed: 5, Rate: 7})
	if !in.Decide(1).Fail {
		t.Fatal("rate clamped to 1 should always fail")
	}
	in2 := New(Config{Seed: 5, Rate: -3})
	if in2.Decide(1).Fail {
		t.Fatal("rate clamped to 0 should never fail")
	}
}

func TestSourcePolicyPureAndBucketed(t *testing.T) {
	p := Sources(New(Config{Seed: 17, Rate: 0.5}))
	issued := time.Unix(1700000000, 0)
	for id := int64(0); id < 100; id++ {
		a := p.FetchOK(cknn.CompL, id, issued)
		if b := p.FetchOK(cknn.CompL, id, issued); a != b {
			t.Fatalf("FetchOK not pure for charger %d", id)
		}
		// Same freshness bucket, same answer.
		if b := p.FetchOK(cknn.CompL, id, issued.Add(time.Second)); a != b {
			t.Fatalf("FetchOK changed within one bucket for charger %d", id)
		}
	}
	// Across buckets the realization must eventually change.
	changed := false
	for id := int64(0); id < 100 && !changed; id++ {
		a := p.FetchOK(cknn.CompA, id, issued)
		changed = a != p.FetchOK(cknn.CompA, id, issued.Add(time.Hour))
	}
	if !changed {
		t.Fatal("fault realization identical across distant buckets for all chargers")
	}
}

func TestSourcePolicyComponentsIndependent(t *testing.T) {
	p := Sources(New(Config{Seed: 23, Rate: 0.5}))
	issued := time.Unix(1700000000, 0)
	identical := true
	for id := int64(0); id < 64 && identical; id++ {
		identical = p.FetchOK(cknn.CompL, id, issued) == p.FetchOK(cknn.CompD, id, issued)
	}
	if identical {
		t.Fatal("L and D fetch decisions perfectly correlated")
	}
}

func TestHashStringDistinct(t *testing.T) {
	if HashString("/v1/offering") == HashString("/v1/trip-offering") {
		t.Fatal("distinct endpoints hashed identically")
	}
	if HashString("") == HashString("x") {
		t.Fatal("empty and non-empty strings hashed identically")
	}
}
