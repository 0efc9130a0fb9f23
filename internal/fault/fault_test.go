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

// The transport tests drive the fleet's transport, the one HTTP fault
// injector, on one shard host with no server behind it.
const shardHost = "eis.local"

func TestTransportInjectsFailures(t *testing.T) {
	inner := &staticTripper{}
	tr := NewFleet(New(Config{Seed: 31}), map[string]ShardShape{shardHost: {DropRate: 0.5}}).Transport(inner, nil)
	req, _ := http.NewRequest(http.MethodGet, "http://"+shardHost+"/v1/offering", nil)
	fails := 0
	const n = 200
	for i := 0; i < n; i++ {
		resp, err := tr.RoundTrip(req)
		if err != nil {
			var te *TransportError
			if !errors.As(err, &te) {
				t.Fatalf("unexpected error type %T: %v", err, err)
			}
			if te.Endpoint != shardHost+"/v1/offering" {
				t.Fatalf("fault recorded wrong endpoint %q", te.Endpoint)
			}
			fails++
			continue
		}
		resp.Body.Close()
	}
	if fails == 0 || fails == n {
		t.Fatalf("drop rate 0.5 produced %d/%d failures", fails, n)
	}
	if inner.calls != n-fails {
		t.Fatalf("inner transport saw %d calls, want %d (faulted requests must not reach it)", inner.calls, n-fails)
	}
}

func TestTransportBlackout(t *testing.T) {
	inner := &staticTripper{}
	inj := New(Config{Seed: 31})
	tr := NewFleet(inj, map[string]ShardShape{shardHost: {Blackouts: []Window{{From: 0, To: 10}}}}).Transport(inner, nil)
	req, _ := http.NewRequest(http.MethodGet, "http://"+shardHost+"/v1/health", nil)
	if _, err := tr.RoundTrip(req); err == nil {
		t.Fatal("round trip succeeded during blackout")
	}
	inj.Advance(10)
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatalf("round trip failed after blackout: %v", err)
	}
	resp.Body.Close()
	if inner.calls != 1 {
		t.Fatalf("inner transport saw %d calls, want 1 (the blackout's must not reach it)", inner.calls)
	}
}

func TestTransportLatencyUsesInjectedSleep(t *testing.T) {
	var slept []time.Duration
	tr := NewFleet(New(Config{Seed: 41}), map[string]ShardShape{
		shardHost: {Slow: []Window{{From: 0, To: 1}}, Latency: time.Hour},
	}).Transport(&staticTripper{}, func(d time.Duration) { slept = append(slept, d) })
	req, _ := http.NewRequest(http.MethodGet, "http://"+shardHost+"/v1/offering", nil)
	for i := 0; i < 20; i++ {
		if resp, err := tr.RoundTrip(req); err == nil {
			resp.Body.Close()
		}
	}
	if len(slept) != 20 {
		t.Fatalf("a slow window invoked the injected sleep %d times in 20 exchanges", len(slept))
	}
	for _, d := range slept {
		if d != time.Hour {
			t.Fatalf("injected sleep %v, want the shape's 1h", d)
		}
	}
}

func TestTransportNilInjectorPassesThrough(t *testing.T) {
	inner := &staticTripper{}
	tr := NewFleet(nil, nil).Transport(inner, nil)
	req, _ := http.NewRequest(http.MethodGet, "http://"+shardHost+"/v1/health", nil)
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
