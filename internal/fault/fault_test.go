package fault

import (
	"errors"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"ecocharge/internal/cknn"
)

func TestDecideDeterministic(t *testing.T) {
	in := New(Config{Seed: 42, Rate: 0.3, StaleRate: 0.2, LatencyRate: 0.5, Latency: time.Second})
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
		if d := in.Decide(i); d.Fail || d.Stale || d.Latency != 0 {
			t.Fatalf("zero-rate config injected %+v for key %d", d, i)
		}
	}
}

func TestBlackoutWindows(t *testing.T) {
	in := New(Config{Seed: 3, Blackouts: []Window{{From: 2, To: 4}}})
	if in.blackoutAt(in.Tick()) {
		t.Fatal("tick 0 should be clear")
	}
	if d := in.Decide(1); d.Fail {
		t.Fatal("decision failed outside blackout with rate 0")
	}
	in.Advance(2) // tick 2: inside
	if !in.blackoutAt(in.Tick()) {
		t.Fatal("tick 2 should be in blackout")
	}
	if d := in.Decide(1); !d.Fail {
		t.Fatal("decision succeeded inside blackout")
	}
	in.Advance(2) // tick 4: half-open upper bound is exclusive
	if in.blackoutAt(in.Tick()) {
		t.Fatal("tick 4 should be clear (half-open window)")
	}
	if d := in.Decide(1); d.Fail {
		t.Fatal("decision failed after blackout ended")
	}
}

func TestDecideSeqIndependentAttempts(t *testing.T) {
	in := New(Config{Seed: 11, Rate: 0.5})
	varied := false
	first := in.DecideSeq(1).Fail
	for i := 0; i < 64; i++ {
		if in.DecideSeq(1).Fail != first {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("sequenced decisions at rate 0.5 never varied across attempts")
	}
}

func TestConfigClamped(t *testing.T) {
	in := New(Config{Seed: 5, Rate: 7, StaleRate: -1})
	if !in.Decide(1).Fail {
		t.Fatal("rate clamped to 1 should always fail")
	}
	in2 := New(Config{Seed: 5, Rate: -3})
	if in2.Decide(1).Fail {
		t.Fatal("rate clamped to 0 should never fail")
	}
}

func TestLatencyBounded(t *testing.T) {
	max := 80 * time.Millisecond
	in := New(Config{Seed: 13, LatencyRate: 1, Latency: max})
	hit := false
	for i := uint64(0); i < 100; i++ {
		d := in.Decide(i)
		if d.Latency < 0 || d.Latency >= max {
			t.Fatalf("latency %v outside [0, %v)", d.Latency, max)
		}
		if d.Latency > 0 {
			hit = true
		}
	}
	if !hit {
		t.Fatal("LatencyRate 1 never injected latency")
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

// staticTripper returns a fixed 200 response.
type staticTripper struct{ calls int }

func (s *staticTripper) RoundTrip(*http.Request) (*http.Response, error) {
	s.calls++
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     make(http.Header),
		Body:       io.NopCloser(strings.NewReader("{}")),
	}, nil
}

func TestTransportInjectsFailures(t *testing.T) {
	inner := &staticTripper{}
	tr := &Transport{Inner: inner, Inj: New(Config{Seed: 31, Rate: 0.5})}
	req, _ := http.NewRequest(http.MethodGet, "http://eis.local/v1/offering", nil)
	fails := 0
	const n = 200
	for i := 0; i < n; i++ {
		resp, err := tr.RoundTrip(req)
		if err != nil {
			var te *TransportError
			if !errors.As(err, &te) {
				t.Fatalf("unexpected error type %T: %v", err, err)
			}
			if te.Endpoint != "/v1/offering" {
				t.Fatalf("fault recorded wrong endpoint %q", te.Endpoint)
			}
			fails++
			continue
		}
		resp.Body.Close()
	}
	if fails == 0 || fails == n {
		t.Fatalf("fault rate 0.5 produced %d/%d failures", fails, n)
	}
	if inner.calls != n-fails {
		t.Fatalf("inner transport saw %d calls, want %d (faulted requests must not reach it)", inner.calls, n-fails)
	}
}

func TestTransportBlackout(t *testing.T) {
	inner := &staticTripper{}
	tr := &Transport{Inner: inner, Inj: New(Config{Seed: 31, Blackouts: []Window{{From: 0, To: 10}}})}
	req, _ := http.NewRequest(http.MethodGet, "http://eis.local/v1/health", nil)
	if _, err := tr.RoundTrip(req); err == nil {
		t.Fatal("round trip succeeded during blackout")
	}
	tr.Inj.Advance(10)
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatalf("round trip failed after blackout: %v", err)
	}
	resp.Body.Close()
}

func TestTransportLatencyUsesInjectedSleep(t *testing.T) {
	var slept []time.Duration
	tr := &Transport{
		Inner: &staticTripper{},
		Inj:   New(Config{Seed: 41, LatencyRate: 1, Latency: time.Hour}),
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	req, _ := http.NewRequest(http.MethodGet, "http://eis.local/v1/health", nil)
	for i := 0; i < 20; i++ {
		if resp, err := tr.RoundTrip(req); err == nil {
			resp.Body.Close()
		}
	}
	if len(slept) == 0 {
		t.Fatal("LatencyRate 1 never invoked the injected sleep")
	}
	for _, d := range slept {
		if d <= 0 || d >= time.Hour {
			t.Fatalf("injected sleep %v outside (0, 1h)", d)
		}
	}
}

func TestTransportNilInjectorPassesThrough(t *testing.T) {
	inner := &staticTripper{}
	tr := &Transport{Inner: inner}
	req, _ := http.NewRequest(http.MethodGet, "http://eis.local/v1/health", nil)
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatalf("nil-injector transport failed: %v", err)
	}
	resp.Body.Close()
	if inner.calls != 1 {
		t.Fatalf("inner transport saw %d calls, want 1", inner.calls)
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
