package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/eis"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/wire"
)

// This file is the gateway↔shard exchange: what one request to one shard
// costs, and who runs it.
//
//   - Everything about a request that does not change from call to call is
//     built once: a member's request head per endpoint (target), read-only
//     and shared by every attempt. An attempt adds its body's length and
//     bytes (target.appendRequest).
//   - A fan-out is one goroutine: the handler's writes every shard's request
//     that can go out at once, on an idle connection (hop.send), then reads
//     the answers in shard order (hop.receive). The shards work in parallel;
//     the gateway starts no goroutine, channel, timer or context for such a
//     member without a replica.
//   - A fan-out has one deadline, which send makes every connection's
//     (transport.go), and one cancellation hook on the request's context;
//     nothing else watches the clock. Past the deadline an answer that has
//     begun to arrive is still read, so a shard that hung costs only its own.
//   - A member's exchange runs apart, on a goroutine and under a context of
//     its own, when its request would wait to go out — on a dial, which a
//     host that drops it makes last the whole deadline, or on a body too
//     large for the socket to take at once (errWouldWait) — and when the
//     member has a replica, whose hedge runs on its timer's goroutine. So
//     the fan-out lasts as long as its slowest shard, not the sum of its sends.

// endpoint indexes what the gateway asks a shard: the two rankings it fans
// out and the health check it probes.
type endpoint int

const (
	epOffering endpoint = iota
	epTrip
	epHealthz
	numEndpoints
)

// endpointPaths are the endpoints' paths under a shard's base URL.
var endpointPaths = [numEndpoints]string{
	epOffering: eis.APIVersion + "/offering",
	epTrip:     eis.APIVersion + "/offering/trip",
	epHealthz:  "/healthz", // outside the API version, on every EIS
}

// target is one base URL of a member — its primary or its replica — with
// the address its requests go to and the head of every endpoint's request.
type target struct {
	base string
	addr string // host:port
	// heads holds each endpoint's request head, built once: the request line
	// and the header lines, each ending in CRLF, that every request to it
	// sends. The two rankings are POSTs that send and ask for the binary
	// format; a probe asks for nothing.
	heads [numEndpoints]string
}

// newTarget parses base, which must be a plain http URL: the only scheme the
// gateway's hop speaks.
func newTarget(base string) (*target, error) {
	t := &target{base: base}
	for ep, path := range endpointPaths {
		u, err := url.Parse(base + path)
		if err != nil || u.Host == "" {
			return nil, fmt.Errorf("%q is not an absolute URL", base)
		}
		if u.User != nil {
			// Only Client.Do turns URL credentials into a header.
			return nil, fmt.Errorf("%q carries credentials, which shard exchanges do not send", base)
		}
		if u.Scheme != "http" {
			return nil, fmt.Errorf("%q is not plain http, the only scheme the gateway's hop speaks", base)
		}
		t.addr = u.Host
		if u.Port() == "" {
			t.addr += ":80"
		}
		method, fields := http.MethodGet, ""
		if endpoint(ep) != epHealthz {
			method, fields = http.MethodPost, "Accept: "+wire.ContentType+"\r\nContent-Type: "+wire.ContentType+"\r\n"
		}
		t.heads[ep] = method + " " + u.EscapedPath() + " HTTP/1.1\r\nHost: " + u.Host + "\r\n" + fields
	}
	return t, nil
}

// appendRequest appends the whole request of c to b: the endpoint's head,
// Content-Length when there is a body, and the body.
func (t *target) appendRequest(b []byte, c *call) []byte {
	b = append(b, t.heads[c.ep]...)
	if c.body != nil {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(c.body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	return append(b, c.body...)
}

// call is what a fan-out sends to one shard — the same to every shard,
// unless the gateway searched for some of them (supplyTravel, supplyTrip) —
// and all the attempts against that shard read the same one.
type call struct {
	ep endpoint
	// body is the binary request the gateway encoded (none for a probe), in
	// the fan-out's own pooled storage (fanout.body, fanout.bodies). Every
	// attempt the fan-out waits for has sent it before the fan-out returns;
	// the one attempt that can outlive the fan-out, a hedge, sends a copy of
	// its own (hedged).
	body []byte
}

// shardResult is the outcome of one logical exchange with a shard (primary
// plus any hedge): either a terminal HTTP response (any status) or an error
// meaning the shard is unreachable for this request.
type shardResult struct {
	status int
	header answerHeader
	body   []byte
	err    error
	// buf is the pooled backing storage of body; release returns it.
	buf *wire.Buffer
}

// ok reports a 200 answer.
func (res *shardResult) ok() bool { return res.err == nil && res.status == http.StatusOK }

// release returns the result's pooled body buffer; no slice of body may be
// touched afterwards.
func (res *shardResult) release() {
	if res.buf != nil {
		wire.PutBuffer(res.buf)
		res.buf, res.body = nil, nil
	}
}

// attempt performs one HTTP exchange against one target under ctx — its
// deadline and a cancellation hook of its own — sending and receiving on the
// calling goroutine; the caller owns the result and must release() it.
// Hedges, probes and a fan-out's exchanges that run apart come through here.
func (g *Gateway) attempt(ctx context.Context, t *target, c *call) shardResult {
	var hook cancelHook
	hook.arm(ctx)
	defer hook.disarm()
	x := exchange{ctx: ctx, hook: &hook, t: t, c: c, buf: wire.GetBuffer()}
	x.deadline, _ = ctx.Deadline()
	if err := g.send(&x); err != nil {
		return shardResult{err: err}
	}
	return g.receive(&x)
}

// send writes x's request on the gateway's hop, into a pooled buffer x holds;
// when it fails, the buffer goes back and x holds none.
func (g *Gateway) send(x *exchange) error {
	err := g.hop.send(x)
	if err != nil {
		wire.PutBuffer(x.buf)
		x.buf = nil
	}
	return err
}

// receive reads the answer to x's request on the gateway's hop; the result
// takes x's buffer, the answer's body read into it. A shard's 3xx is a
// terminal answer like any other status.
func (g *Gateway) receive(x *exchange) shardResult {
	status, header, err := g.hop.receive(x)
	if err == nil && eis.RetryableStatus(status) {
		err = fmt.Errorf("fleet: shard %s: HTTP %d", x.t.base, status)
	}
	buf := x.buf
	x.buf = nil
	if err != nil {
		wire.PutBuffer(buf)
		return shardResult{err: err}
	}
	return shardResult{status: status, header: header, body: buf.B, buf: buf}
}

// admit asks m's breaker for an exchange and counts it; the error is the
// exchange's result when the breaker refuses it, which records no outcome.
func (g *Gateway) admit(m *member) error {
	if err := m.breaker.Allow(); err != nil {
		met.shardFailures.Inc()
		return fmt.Errorf("fleet: shard %d: %w", m.index, err)
	}
	met.shardRequests.Inc()
	return nil
}

// settle records the one breaker outcome of an exchange admit let through.
func settle(m *member, res *shardResult) {
	if res.err != nil {
		met.shardFailures.Inc()
		m.breaker.OnFailure()
	} else {
		m.breaker.OnSuccess()
	}
}

// hedges reports whether exchanges with m are hedged.
func (g *Gateway) hedges(m *member) bool { return m.replica != nil && g.opts.HedgeDelay >= 0 }

// admitted is the exchange with m once admit has let it through: hedged
// when m has a replica, its one breaker outcome recorded.
func (g *Gateway) admitted(ctx context.Context, m *member, c *call) shardResult {
	var res shardResult
	if g.hedges(m) {
		res = g.hedged(ctx, m, c)
	} else {
		res = g.attempt(ctx, m.primary, c)
	}
	settle(m, &res)
	return res
}

// hedge is the replica attempt of one exchange, run on its timer's
// goroutine. The mutex orders its result against the exchange giving up on
// it, so exactly one side releases the result's buffer.
type hedge struct {
	mu        sync.Mutex
	res       shardResult
	abandoned bool
	done      chan struct{} // closed when the attempt has finished
}

// abandon tells the hedge its result is no longer wanted and releases one
// that already arrived.
func (h *hedge) abandon() {
	h.mu.Lock()
	h.abandoned = true
	h.res.release()
	h.mu.Unlock()
}

// hedged is the exchange with a member that has a replica: the primary on
// the calling goroutine at once, the replica after the hedge delay (at once
// when the shard's last probe failed) or as failover when the primary fails
// first. The first terminal answer wins and cancels the other attempt. A
// losing replica attempt can outlive the exchange, and the fan-out whose
// pooled call and body it was given, so both attempts read a copy of the
// call and of its body that the garbage collector owns.
func (g *Gateway) hedged(ctx context.Context, m *member, pooled *call) shardResult {
	c := *pooled
	c.body = bytes.Clone(c.body)
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	replica := func() shardResult {
		met.hedgesFired.Inc()
		met.shardRequests.Inc()
		return g.attempt(actx, m.replica, &c)
	}
	delay := g.opts.HedgeDelay
	if !m.probeOK.Load() {
		delay = 0
	}
	h := &hedge{done: make(chan struct{})}
	timer := time.AfterFunc(delay, func() {
		res := replica()
		h.mu.Lock()
		if h.abandoned {
			res.release()
		} else {
			h.res = res
		}
		h.mu.Unlock()
		if res.err == nil {
			cancel() // the replica answered: stop waiting for the primary
		}
		close(h.done)
	})

	primary := g.attempt(actx, m.primary, &c)
	if primary.err == nil {
		timer.Stop()
		h.abandon()
		return primary
	}
	if timer.Stop() {
		// The primary failed before the hedge timer: fail over to the
		// replica for the remainder of the deadline.
		if res := replica(); res.err == nil {
			met.hedgeWins.Inc()
			return res
		}
		return primary
	}
	select {
	case <-h.done:
	case <-ctx.Done():
		h.abandon()
		return shardResult{err: fmt.Errorf("fleet: shard %d: %w", m.index, ctx.Err())}
	}
	if h.res.err == nil {
		met.hedgeWins.Inc()
		return h.res
	}
	return primary
}

// fanout is the per-request state of one exchange with every shard, pooled
// per gateway so that a fault-free fan-out allocates nothing of its own: one
// call and one result per shard, and — for the offering merge — the decoded
// request, one decoded table per shard with its entry storage, the merged
// answer and its selection's pool and picks (fanout.pick). The trip merge
// has the same: the decoded request, one decoded trip per shard, segment and
// entry storage included, and the merged trip, whose tables share top. Both
// keep the scratch of the searches the gateway may run for the shards
// (supplyTravel, supplyTrip), and the storage of the request bodies the
// shards are sent.
type fanout struct {
	calls   []call
	results []shardResult
	// xs are the exchanges sent and not yet received, hook their
	// cancellation hook, and wg waits for the exchanges that run apart, on
	// goroutines of their own (fanoutApart).
	xs   []exchange
	hook cancelHook
	wg   sync.WaitGroup

	// body is the request every shard is sent unless the gateway searched
	// for it, and bodies[i] shard i's request with its travel blocks when it
	// did (supplyBlocks). Each is written once a request, in place.
	body   []byte
	bodies [][]byte

	req    eis.OfferingRequest
	tables []eis.OfferingResponse
	refs   []*eis.OfferingEntry // the selection's pool: pointers into the answers
	picks  []int                // the indexes into refs cknn.Select picked
	top    []eis.OfferingEntry
	merged eis.OfferingResponse

	trip       eis.TripOfferingRequest
	trips      []eis.TripOfferingResponse
	tripMerged eis.TripOfferingResponse

	// The searches the gateway ran for the shards (supplyTravel, supplyTrip):
	// an offering's, or one a computed trip segment. targets holds, search
	// after search, the nodes searched to — shard after shard, each search
	// closed by its return node — and seconds and back the times of both
	// legs found at each; blocks are the searches' heads, and spans each
	// shard's run of each (search-major, one a member). sets are the
	// inventories of the members that could be searched for when a trip was
	// planned (nil for one that could not), and cands the storage of the
	// radius query targets are read from. All of it keeps the capacity of the
	// largest trip seen.
	cands         charger.Candidates
	targets       []roadnet.NodeID
	seconds, back []float64
	blocks        []wire.TravelBlock
	spans         []span
	sets          []*charger.Set
}

// startSupply empties the scratch of the searches run for the shards.
func (fo *fanout) startSupply() {
	fo.targets, fo.seconds, fo.back = fo.targets[:0], fo.seconds[:0], fo.back[:0]
	fo.blocks, fo.spans = fo.blocks[:0], fo.spans[:0]
}

func (g *Gateway) getFanout() *fanout {
	if fo, ok := g.fanouts.Get().(*fanout); ok {
		return fo
	}
	n := len(g.members)
	return &fanout{
		calls: make([]call, n), results: make([]shardResult, n), xs: make([]exchange, n),
		bodies: make([][]byte, n),
		tables: make([]eis.OfferingResponse, n),
		trips:  make([]eis.TripOfferingResponse, n),
	}
}

// setCall sets the call every shard gets.
func (fo *fanout) setCall(c call) {
	for i := range fo.calls {
		fo.calls[i] = c
	}
}

// putFanout releases every shard body and returns the state to the pool;
// nothing decoded from the bodies, and no slice of merged, may be used
// afterwards. A request body over the cap gives its storage back.
func (g *Gateway) putFanout(fo *fanout) {
	for i := range fo.results {
		fo.results[i].release()
		fo.results[i] = shardResult{}
		fo.calls[i] = call{}
	}
	if cap(fo.body) > maxPooledBodyBytes {
		fo.body = nil
	}
	for i := range fo.bodies {
		if cap(fo.bodies[i]) > maxPooledBodyBytes {
			fo.bodies[i] = nil
		}
	}
	fo.merged = eis.OfferingResponse{}
	for i := range fo.trips {
		trimTrip(&fo.trips[i])
	}
	// The merged trip's tables are slices of top.
	if cap(fo.top) > maxPooledTripEntries {
		fo.top, fo.tripMerged = nil, eis.TripOfferingResponse{}
	}
	g.fanouts.Put(fo)
}

// maxPooledTripEntries caps the entry storage a pooled fan-out keeps per
// decoded trip and for the merged one (130 KB each; the benchmark's trips
// hold a few dozen entries a shard), as cknn caps a ranking's entry scratch:
// a fan-out that answered an outsized trip gives its storage back.
const maxPooledTripEntries = 1 << 10

// maxPooledBodyBytes caps the storage a pooled fan-out keeps for each request
// body, in the same spirit: the benchmark's trips send a shard about 21 KB,
// its rankings a few, and a request for a longer trip gives its storage back.
const maxPooledBodyBytes = 128 << 10

// trimTrip drops the storage of a decoded trip that holds more than the cap;
// a segment counts for one entry at least.
func trimTrip(t *eis.TripOfferingResponse) {
	entries := 0
	for _, seg := range t.Segments[:cap(t.Segments)] {
		entries += max(cap(seg.Entries), 1)
	}
	if entries > maxPooledTripEntries {
		*t = eis.TripOfferingResponse{}
	}
}

// fanout runs fo.calls, each against its shard, under one deadline and
// leaves the results in fo.results, indexed by shard. The handler's
// goroutine sends every request that can go out at once before it reads any
// answer, and reads them in shard order: the shards work in parallel, and
// past the deadline an answer that has begun to arrive is still read
// (shardTransport.receive). Every other exchange runs apart (fanoutApart).
func (g *Gateway) fanout(ctx context.Context, fo *fanout) {
	deadline := time.Now().Add(g.opts.ShardTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	fo.hook.arm(ctx)
	for i, m := range g.members {
		if err := g.admit(m); err != nil {
			fo.results[i] = shardResult{err: err}
			continue
		}
		if !g.hedges(m) {
			x := &fo.xs[i]
			*x = exchange{ctx: ctx, deadline: deadline, hook: &fo.hook, t: m.primary, c: &fo.calls[i], buf: wire.GetBuffer(), inline: true}
			err := g.send(x)
			if err == nil {
				continue
			}
			if !errors.Is(err, errWouldWait) {
				fo.results[i] = shardResult{err: err}
				settle(m, &fo.results[i])
				continue
			}
		}
		fo.wg.Add(1)
		go g.fanoutApart(ctx, deadline, fo, i)
	}
	for i, m := range g.members {
		if x := &fo.xs[i]; x.buf != nil {
			fo.results[i] = g.receive(x)
			settle(m, &fo.results[i])
		}
		fo.xs[i] = exchange{}
	}
	fo.wg.Wait()
	fo.hook.disarm()
}

// fanoutApart is member i's admitted exchange on a goroutine of its own, so
// that it waits while the handler's goroutine reads the other shards'
// answers: the exchange with a member that has a replica, whose hedge timer
// must be able to fire, or with one whose request would have waited to go
// out.
func (g *Gateway) fanoutApart(ctx context.Context, deadline time.Time, fo *fanout, i int) {
	defer fo.wg.Done()
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	fo.results[i] = g.admitted(ctx, g.members[i], &fo.calls[i])
}

// splitResults classifies fan-out results: how many shards answered 200, the
// lowest-index terminal non-200 (for pass-through), and the dead shard
// indexes (nil when every shard answered).
func splitResults(results []shardResult) (live int, bad *shardResult, dead []int) {
	for i := range results {
		switch res := &results[i]; {
		case res.err != nil:
			dead = append(dead, i)
		case res.status != http.StatusOK:
			if bad == nil {
				bad = res
			}
		default:
			live++
		}
	}
	return live, bad, dead
}
