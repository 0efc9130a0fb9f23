package fleet

// Accounting of one shard exchange: whatever mix of primary, hedge and
// failover it took, it feeds its breaker exactly one outcome and counts at
// most one shard failure. The breaker is observed through its state machine:
// with threshold 2 a single recorded failure leaves it closed and the second
// opens it, and only a recorded success closes a half-open one.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ecocharge/internal/eis"
	"ecocharge/internal/wire"
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
	g, err := NewGateway([]Shard{shard}, testEnv(t), Options{
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
	fo.setCall(call{ep: epHealthz})
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

// TestFleetHedgeOwnsItsBody: a hedge is the one attempt that can outlive its
// fan-out, whose request body is pooled storage the next request writes
// over. Here the primary answers only once the hedge has fired, so the
// primary wins every exchange, and each hedge is held in the hop — past its
// context's last check, as a replica still sending is — until the next
// request has been served from the same pool. The replica must still be
// sent, and decode, exactly the request its hedge fired for.
func TestFleetHedgeOwnsItsBody(t *testing.T) {
	const requests = 16
	fired := make(chan struct{})
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-fired:
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Content-Type", wire.ContentType)
		_, _ = w.Write(wire.AppendOfferingResponse(nil, &wire.OfferingResponse{GeneratedAt: fixedNow}))
	}))
	defer primary.Close()
	// The replica echoes the request it decoded.
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		var req wire.OfferingRequest
		if err == nil {
			err = wire.DecodeOfferingRequest(body, &req)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		_, _ = w.Write(body)
	}))
	defer replica.Close()

	g, err := NewGateway([]Shard{{URL: primary.URL, Replica: replica.URL}}, testEnv(t), Options{
		Clock: (&fakeClock{t: fixedNow}).Now, ShardTimeout: 10 * time.Second, HedgeDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// parks hands each request's hedge the channel that releases it.
	parks := make(chan chan struct{}, 1)
	releases := make([]chan struct{}, requests)
	for i := range releases {
		releases[i] = make(chan struct{})
	}
	released := 0
	releaseBefore := func(n int) {
		for ; released < n; released++ {
			close(releases[released])
		}
	}
	var hedges sync.WaitGroup
	defer hedges.Wait()
	defer releaseBefore(requests)
	next := g.hop
	var sent sync.Map // *exchange → the request body its hedge fired with
	g.hop.send = func(x *exchange) error {
		if x.t != g.members[0].replica {
			return next.send(x)
		}
		hedges.Add(1)
		body := bytes.Clone(x.c.body)
		var release chan struct{}
		select {
		case release = <-parks:
		case <-x.ctx.Done(): // the exchange gave up on the primary
			hedges.Done()
			return x.ctx.Err()
		}
		select {
		case fired <- struct{}{}:
		case <-x.ctx.Done():
			hedges.Done()
			return x.ctx.Err()
		}
		<-release
		x.ctx, x.deadline, x.hook = context.WithoutCancel(x.ctx), time.Time{}, nil
		if err := next.send(x); err != nil {
			t.Errorf("a hedge fired with request %x and was not sent: %v", body, err)
			hedges.Done()
			return err
		}
		sent.Store(x, body)
		return nil
	}
	g.hop.receive = func(x *exchange) (int, answerHeader, error) {
		status, header, err := next.receive(x)
		if body, ok := sent.LoadAndDelete(x); ok {
			defer hedges.Done()
			if err != nil || status != http.StatusOK || !bytes.Equal(x.buf.B, body.([]byte)) {
				t.Errorf("a hedge fired with request %x; its replica answered %d, %v, having decoded %x", body, status, err, x.buf.B)
			}
		}
		return status, header, err
	}

	h := g.Handler()
	req := wire.OfferingRequest{Lat: 53.14, Lon: 8.21, K: 3, Now: fixedNow}
	var body []byte
	for i := 0; i < requests; i++ {
		req.Weights = wire.WeightsJSON{L: 1, A: 1 + float64(i)/1024, D: 0.5}
		body = wire.AppendOfferingRequest(body[:0], &req)
		parks <- releases[i]
		fires := met.hedgesFired.Value()
		r := httptest.NewRequest(http.MethodPost, endpointPaths[epOffering], bytes.NewReader(body))
		r.Header.Set("Content-Type", wire.ContentType)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK || met.hedgesFired.Value() != fires+1 {
			t.Fatalf("request %d: status %d, %d hedges fired: %s", i, w.Code, met.hedgesFired.Value()-fires, w.Body.Bytes())
		}
		// The previous request's hedge goes on now that this one has been
		// served from the pool its body was in.
		releaseBefore(i)
	}
}

// TestFleetFanoutCancelled: the request's context cancelled while the fan-out
// reads its answers stops every exchange at once through the fan-out's one
// hook, not at the deadline, and fails each with context.Canceled; the next
// fan-out, on the same pooled state, reads every shard again.
func TestFleetFanoutCancelled(t *testing.T) {
	shards := []*scriptedShard{newScriptedShard(t), newScriptedShard(t)}
	g, err := NewGateway([]Shard{{URL: shards[0].ts.URL}, {URL: shards[1].ts.URL}}, testEnv(t), Options{ShardTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for _, s := range shards {
			s.next("hang")
		}
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(20*time.Millisecond, cancel)
		fo := g.getFanout()
		fo.setCall(call{ep: epHealthz})
		start := time.Now()
		g.fanout(ctx, fo)
		elapsed := time.Since(start)
		for i, res := range fo.results {
			if !errors.Is(res.err, context.Canceled) {
				t.Fatalf("round %d, shard %d: a cancelled fan-out gave %v, want context.Canceled", round, i, res.err)
			}
		}
		g.putFanout(fo)
		timer.Stop()
		cancel()
		if elapsed > 2*time.Second {
			t.Fatalf("round %d: the cancelled fan-out returned after %v", round, elapsed)
		}
		fo = g.getFanout()
		fo.setCall(call{ep: epHealthz})
		g.fanout(context.Background(), fo)
		for i, res := range fo.results {
			if !res.ok() || string(res.body) != "ok" {
				t.Fatalf("round %d, shard %d: the next fan-out gave %d %q, %v", round, i, res.status, res.body, res.err)
			}
		}
		g.putFanout(fo)
	}
}

// goid is the ID of the calling goroutine.
func goid() string {
	var b [64]byte
	id, _, _ := strings.Cut(strings.TrimPrefix(string(b[:runtime.Stack(b[:], false)]), "goroutine "), " ")
	return id
}

// TestFleetFanoutOnHandlerGoroutine: without replicas, and with an idle
// connection to every shard (the probes leave one each), a fan-out is one
// goroutine. The harness's hop records the goroutine each half runs on, and
// the handler is served on the test's own: every request a fan-out sends and
// every answer it reads — an offering, a trip — is the handler goroutine's,
// and all three shards' requests go out before the first answer is read. A
// radius query is no fan-out and sends none.
func TestFleetFanoutOnHandlerGoroutine(t *testing.T) {
	h := newFleetHarness(t, harnessOpts{n: 3})
	h.gw.ProbeAll(context.Background())
	var halves []string // "send" or "receive", then the goroutine
	next := h.gw.hop
	h.gw.hop = hop{
		send: func(x *exchange) error {
			halves = append(halves, "send "+goid())
			return next.send(x)
		},
		receive: func(x *exchange) (int, answerHeader, error) {
			halves = append(halves, "receive "+goid())
			return next.receive(x)
		},
	}
	center := h.env.Graph.Bounds().Center()
	trip := routedTrips(t, h.env.Graph, 8, 1, 18, fixedNow)[0]
	handler, me := h.gw.Handler(), goid()
	for _, tc := range []struct {
		what, method, pathq string
		body                []byte
		fansOut             bool
	}{
		{"offering", http.MethodPost, eis.APIVersion + "/offering", offeringBody(t, eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, Now: fixedNow}), true},
		{"trip offering", http.MethodPost, eis.APIVersion + "/offering/trip", tripRequest(h.env.Graph, trip, 3, 6000, 2000, 1500), true},
		{"chargers", http.MethodGet, eis.APIVersion + "/chargers?lat=" + fmtFloat(center.Lat) + "&lon=" + fmtFloat(center.Lon) + "&radius_m=3000", nil, false},
	} {
		halves = halves[:0]
		r := httptest.NewRequest(tc.method, tc.pathq, bytes.NewReader(tc.body))
		if tc.body != nil {
			r.Header.Set("Content-Type", eis.ContentTypeJSON)
		}
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, r)
		if w.Code != http.StatusOK || w.Header().Get(degradedHeader) != "" {
			t.Fatalf("%s: status %d, degraded %q: %.300s", tc.what, w.Code, w.Header().Get(degradedHeader), w.Body.Bytes())
		}
		var want []string
		if tc.fansOut {
			want = []string{"send " + me, "send " + me, "send " + me, "receive " + me, "receive " + me, "receive " + me}
		}
		if strings.Join(halves, ", ") != strings.Join(want, ", ") {
			t.Fatalf("%s: the fan-out ran %q, want %q", tc.what, halves, want)
		}
	}
}

// TestNewGatewayRejectsWhatExchangesBypass: exchanges run on the gateway's
// own hop, so a URL form that only Client.Do acts on is a construction
// error, not something silently ignored per request; so is any scheme but
// the plain http the hop speaks, which sends no https request at all.
func TestNewGatewayRejectsWhatExchangesBypass(t *testing.T) {
	env := testEnv(t)
	for name, shards := range map[string][]Shard{
		"primary credentials": {{URL: "http://u:p@127.0.0.1:1"}},
		"replica credentials": {{URL: "http://127.0.0.1:1", Replica: "http://u:p@127.0.0.1:2"}},
		"relative URL":        {{URL: "127.0.0.1:1"}},
		"https primary":       {{URL: "https://127.0.0.1:1"}},
		"https replica":       {{URL: "http://127.0.0.1:1", Replica: "https://127.0.0.1:2"}},
	} {
		if _, err := NewGateway(shards, env, Options{}); err == nil {
			t.Errorf("%s: NewGateway accepted it", name)
		}
	}
	if _, err := NewGateway([]Shard{{URL: "http://127.0.0.1:1"}}, env, Options{}); err != nil {
		t.Errorf("a plain shard URL was refused: %v", err)
	}
	if _, err := NewGateway([]Shard{{URL: "http://127.0.0.1:1"}}, nil, Options{}); err == nil {
		t.Error("a gateway without the world its shards serve was built")
	}
}
