package eis

// Chaos tests of the comms stack: circuit-breaker walks through a scripted
// transport blackout on a fake clock, and end-to-end server runs over a
// fault-injected environment — requests must keep answering 200 with valid,
// correctly tagged Offering Tables at 30% source faults and even during a
// total source blackout.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ecocharge/internal/cknn"
	"ecocharge/internal/fault"
)

// fakeClock is a manually advanced clock for breaker cooldowns.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestChaosBreakerBlackoutRecovery walks the breaker through a scripted
// blackout: closed → open after five consecutive faults (the first call's
// four attempts and the second call's first), fail-fast while open, half-open
// probe after the cooldown (re-opening while the outage lasts), and
// half-open → closed once the transport recovers.
func TestChaosBreakerBlackoutRecovery(t *testing.T) {
	inner := &countingTripper{}
	inj := fault.New(fault.Config{Seed: 5, Blackouts: []fault.Window{{From: 0, To: 1}}})
	clk := &fakeClock{t: fixedNow}
	rec := &sleepRecorder{}
	c := NewClientOpts("http://eis.test", ClientOptions{
		HTTPClient: &http.Client{Transport: &fault.Transport{Inner: inner, Inj: inj}},
		Clock:      clk.Now,
		Sleep:      rec.sleep,
	})
	ctx := context.Background()
	at := time.Unix(0, 0)

	// Blackout: one call retries to its budget, four faults, short of the
	// threshold; the next call's first fault opens the /traffic breaker and
	// its retry fails fast.
	if _, err := c.Traffic(ctx, at); err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("first call during blackout: %v, want a transport failure", err)
	}
	if _, err := c.Traffic(ctx, at); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("breaker did not open at the fifth fault: %v", err)
	}
	reached := inner.count()
	if _, err := c.Traffic(ctx, at); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker did not fail fast: %v", err)
	}
	if inner.count() != reached {
		t.Fatal("open breaker let a request reach the transport")
	}

	// Cooldown elapses while the blackout persists: the half-open probe
	// reaches the transport, fails, and the breaker re-opens immediately —
	// the call's retry fails fast.
	clk.Advance(2 * time.Minute)
	waits := len(rec.durations())
	if _, err := c.Traffic(ctx, at); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("failed probe did not re-open the breaker: %v", err)
	}
	if got := len(rec.durations()) - waits; got != 1 {
		t.Fatalf("the call backed off %d times, want once: after the probe, before failing fast", got)
	}
	if got := c.breakers.forEndpoint(APIVersion + "/traffic").State(); got != "open" {
		t.Fatalf("breaker %s after a failed probe, want open", got)
	}

	// The blackout ends and the cooldown elapses: the probe succeeds, the
	// breaker closes, and traffic flows freely again.
	inj.Advance(1)
	clk.Advance(2 * time.Minute)
	if _, err := c.Traffic(ctx, at); err != nil {
		t.Fatalf("half-open probe after recovery: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Traffic(ctx, at); err != nil {
			t.Fatalf("closed breaker rejected call %d after recovery: %v", i, err)
		}
	}
}

// countingTripper serves minimal valid JSON and counts exchanges.
type countingTripper struct {
	mu sync.Mutex
	n  int
}

func (c *countingTripper) RoundTrip(*http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	return (&scriptTripper{steps: []scriptStep{{status: http.StatusOK, body: `{"multiplier":{}}`}}}).RoundTrip(nil)
}

func (c *countingTripper) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// chaosServer builds an httptest EIS over a fault-injected copy of the
// test environment.
func chaosServer(t *testing.T, cfg fault.Config) (*httptest.Server, *Client, *cknn.Env) {
	t.Helper()
	env := testEnv(t)
	cp := *env
	cp.Faults = fault.Sources(fault.New(cfg))
	srv := NewServer(&cp, ServerOptions{Clock: func() time.Time { return fixedNow }})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL, ts.Client()), &cp
}

// TestChaosServerDegradedOfferings hits the Mode 2 endpoint across many
// anchors at a 30% source-fault rate: every request must answer 200 with a
// valid table whose wire-level Degraded tags match the policy exactly.
func TestChaosServerDegradedOfferings(t *testing.T) {
	_, client, env := chaosServer(t, fault.Config{Seed: 9, Rate: 0.3})
	policy := env.Faults
	ctx := context.Background()
	degraded := 0
	all := env.Chargers.All()
	for i := 0; i < len(all); i += 8 {
		anchor := all[i].P
		resp, err := client.Offering(ctx, OfferingRequest{
			Lat: anchor.Lat, Lon: anchor.Lon, K: 3, Now: fixedNow,
		})
		if err != nil {
			t.Fatalf("offering at charger %d anchor under 30%% faults: %v", all[i].ID, err)
		}
		for j, e := range resp.Entries {
			for _, comp := range []cknn.Component{cknn.CompL, cknn.CompA, cknn.CompD} {
				wantBit := !policy.FetchOK(comp, e.ChargerID, fixedNow)
				gotBit := cknn.Degraded(e.Degraded).Has(comp)
				if gotBit != wantBit {
					t.Fatalf("entry %d charger %d: wire Degraded bit %s = %v, policy says %v",
						j, e.ChargerID, comp, gotBit, wantBit)
				}
				if wantBit {
					degraded++
				}
			}
			if j > 0 {
				prev := resp.Entries[j-1].SC.Interval()
				cur := e.SC.Interval()
				if prev.Mid() < cur.Mid() {
					t.Fatalf("entries %d/%d out of order under faults: %v < %v", j-1, j, prev.Mid(), cur.Mid())
				}
			}
		}
	}
	if degraded == 0 {
		t.Fatal("30% fault rate produced no degraded wire entries across all anchors")
	}
}

// TestChaosServerSourceBlackout runs the offering endpoint during a total
// EC-source blackout: the table must still arrive (HTTP 200, entries
// present) with every component of every entry tagged degraded.
func TestChaosServerSourceBlackout(t *testing.T) {
	_, client, env := chaosServer(t, fault.Config{Seed: 9, Blackouts: []fault.Window{{From: 0, To: 1 << 32}}})
	anchor := env.Chargers.All()[0].P
	resp, err := client.Offering(context.Background(), OfferingRequest{
		Lat: anchor.Lat, Lon: anchor.Lon, K: 3, Now: fixedNow,
	})
	if err != nil {
		t.Fatalf("offering during total source blackout: %v", err)
	}
	if len(resp.Entries) == 0 {
		t.Fatal("blackout emptied the Offering Table; expected degraded entries")
	}
	allBits := uint8(cknn.DegradedL | cknn.DegradedA | cknn.DegradedD)
	for i, e := range resp.Entries {
		if e.Degraded != allBits {
			t.Fatalf("entry %d: Degraded = %#x during total blackout, want %#x", i, e.Degraded, allBits)
		}
		for name, iv := range map[string]IntervalJSON{"l": e.L, "a": e.A, "d": e.D} {
			if iv.Min != 0 || iv.Max != 1 {
				t.Fatalf("entry %d component %s = [%v,%v], want the ignorance bound", i, name, iv.Min, iv.Max)
			}
		}
	}
}
