package fleet

// Accounting of one shard exchange: whatever mix of primary, hedge and
// failover it took, it feeds its breaker exactly one outcome and counts at
// most one shard failure. The breaker is observed through its state machine:
// with threshold 2 a single recorded failure leaves it closed and the second
// opens it, and only a recorded success closes a half-open one.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// scriptedShard is a shard endpoint that answers 200, answers 503, or holds
// the request until the client gives up.
type scriptedShard struct {
	ts   *httptest.Server
	mode chan string // buffered(1): the behaviour of the next request; default "ok"
}

func newScriptedShard(t *testing.T) *scriptedShard {
	t.Helper()
	s := &scriptedShard{mode: make(chan string, 1)}
	gone := make(chan struct{})
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mode := "ok"
		select {
		case mode = <-s.mode:
		default:
		}
		switch mode {
		case "fail":
			w.WriteHeader(http.StatusServiceUnavailable)
		case "hang":
			select {
			case <-r.Context().Done():
			case <-gone:
			}
		default:
			_, _ = w.Write([]byte("ok"))
		}
	}))
	t.Cleanup(func() { close(gone); s.ts.Close() })
	return s
}

func (s *scriptedShard) next(mode string) { s.mode <- mode }

// tally is the exchange counters' movement since the last call.
type tally struct{ requests, failures, hedges, wins uint64 }

func takeTally(last *tally) tally {
	now := tally{met.shardRequests.Value(), met.shardFailures.Value(), met.hedgesFired.Value(), met.hedgeWins.Value()}
	d := tally{now.requests - last.requests, now.failures - last.failures, now.hedges - last.hedges, now.wins - last.wins}
	*last = now
	return d
}

type exchangeRig struct {
	t                *testing.T
	g                *Gateway
	clk              *fakeClock
	primary, replica *scriptedShard
	last             tally
}

func newExchangeRig(t *testing.T, withReplica bool, hedge, timeout time.Duration) *exchangeRig {
	t.Helper()
	rig := &exchangeRig{t: t, clk: &fakeClock{t: fixedNow}, primary: newScriptedShard(t)}
	shard := Shard{URL: rig.primary.ts.URL}
	if withReplica {
		rig.replica = newScriptedShard(t)
		shard.Replica = rig.replica.ts.URL
	}
	g, err := NewGateway([]Shard{shard}, Options{
		Clock: rig.clk.Now, ShardTimeout: timeout, HedgeDelay: hedge,
		BreakerThreshold: 2, BreakerCooldown: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	rig.g = g
	takeTally(&rig.last)
	return rig
}

// run performs one exchange through a fan-out (the deadline's owner) and
// checks the counters it moved.
func (rig *exchangeRig) run(wantOK bool, want tally) time.Duration {
	rig.t.Helper()
	fo := rig.g.getFanout()
	defer rig.g.putFanout(fo)
	fo.setCall(call{ep: epTraffic})
	start := time.Now()
	rig.g.fanout(context.Background(), fo)
	elapsed := time.Since(start)
	if got := fo.results[0].err == nil; got != wantOK {
		rig.t.Fatalf("exchange ok=%v (err %v), want ok=%v", got, fo.results[0].err, wantOK)
	}
	if wantOK && string(fo.results[0].body) != "ok" {
		rig.t.Fatalf("exchange body %q", fo.results[0].body)
	}
	if got := takeTally(&rig.last); got != want {
		rig.t.Fatalf("counters moved %+v, want %+v", got, want)
	}
	return elapsed
}

func (rig *exchangeRig) breaker(want string) {
	rig.t.Helper()
	if got := rig.g.members[0].breaker.State(); got != want {
		rig.t.Fatalf("breaker %s, want %s", got, want)
	}
}

// halfOpen drives the breaker to the point where the next exchange is its
// half-open trial: only a recorded success closes it again.
func (rig *exchangeRig) halfOpen() {
	rig.t.Helper()
	b := rig.g.members[0].breaker
	b.OnFailure()
	b.OnFailure()
	rig.breaker("open")
	rig.clk.Advance(2 * time.Minute)
}

func TestFleetExchangeAccountingNoReplica(t *testing.T) {
	rig := newExchangeRig(t, false, 0, 5*time.Second)
	rig.halfOpen()
	rig.run(true, tally{requests: 1})
	rig.breaker("closed")

	rig.primary.next("fail")
	rig.run(false, tally{requests: 1, failures: 1})
	rig.breaker("closed") // one failure recorded, not two
	rig.primary.next("fail")
	rig.run(false, tally{requests: 1, failures: 1})
	rig.breaker("open")

	// An open breaker refuses the call: a failure for the request, no
	// attempt and no outcome for the breaker.
	rig.run(false, tally{failures: 1})
	rig.breaker("open")
}

func TestFleetExchangeAccountingReplicaWinsHedge(t *testing.T) {
	rig := newExchangeRig(t, true, 5*time.Millisecond, 5*time.Second)
	rig.halfOpen()
	rig.primary.next("hang")
	if elapsed := rig.run(true, tally{requests: 2, hedges: 1, wins: 1}); elapsed > 2*time.Second {
		t.Fatalf("the hedge took %v to mask a hung primary", elapsed)
	}
	rig.breaker("closed")

	// The primary answers before the timer: no hedge at all.
	rig.g.opts.HedgeDelay = time.Hour
	rig.run(true, tally{requests: 1})
}

func TestFleetExchangeAccountingPrimaryFailsBeforeHedge(t *testing.T) {
	rig := newExchangeRig(t, true, time.Hour, 5*time.Second)
	rig.halfOpen()
	rig.primary.next("fail")
	if elapsed := rig.run(true, tally{requests: 2, hedges: 1, wins: 1}); elapsed > 2*time.Second {
		t.Fatalf("failover waited %v for a hedge timer an hour away", elapsed)
	}
	rig.breaker("closed")

	// Both fail: one failure for the exchange, whatever the attempts.
	rig.primary.next("fail")
	rig.replica.next("fail")
	rig.run(false, tally{requests: 2, failures: 1, hedges: 1})
	rig.breaker("closed")
	rig.primary.next("fail")
	rig.replica.next("fail")
	rig.run(false, tally{requests: 2, failures: 1, hedges: 1})
	rig.breaker("open")
}

func TestFleetExchangeAccountingDeadline(t *testing.T) {
	const timeout = 50 * time.Millisecond
	for _, withReplica := range []bool{false, true} {
		rig := newExchangeRig(t, withReplica, 5*time.Millisecond, timeout)
		want := tally{requests: 1, failures: 1}
		rig.primary.next("hang")
		if withReplica {
			rig.replica.next("hang")
			want = tally{requests: 2, failures: 1, hedges: 1}
		}
		if elapsed := rig.run(false, want); elapsed < timeout || elapsed > timeout+2*time.Second {
			t.Fatalf("replica=%v: a hung shard held the fan-out for %v with a %v deadline", withReplica, elapsed, timeout)
		}
		rig.breaker("closed")
		rig.primary.next("hang")
		if withReplica {
			rig.replica.next("hang")
		}
		rig.run(false, want)
		rig.breaker("open")
	}
}

// TestNewGatewayRejectsWhatExchangesBypass: exchanges run on the gateway's
// own hop, so a URL form that only Client.Do acts on is a construction
// error, not something silently ignored per request; so is any scheme but
// the plain http the hop speaks, which sends no https request at all.
func TestNewGatewayRejectsWhatExchangesBypass(t *testing.T) {
	for name, shards := range map[string][]Shard{
		"primary credentials": {{URL: "http://u:p@127.0.0.1:1"}},
		"replica credentials": {{URL: "http://127.0.0.1:1", Replica: "http://u:p@127.0.0.1:2"}},
		"relative URL":        {{URL: "127.0.0.1:1"}},
		"https primary":       {{URL: "https://127.0.0.1:1"}},
		"https replica":       {{URL: "http://127.0.0.1:1", Replica: "https://127.0.0.1:2"}},
	} {
		if _, err := NewGateway(shards, Options{}); err == nil {
			t.Errorf("%s: NewGateway accepted it", name)
		}
	}
	if _, err := NewGateway([]Shard{{URL: "http://127.0.0.1:1"}}, Options{}); err != nil {
		t.Errorf("a plain shard URL was refused: %v", err)
	}
}
