package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"ecocharge/internal/eis"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/spatial"
	"ecocharge/internal/wire"
)

// This file is the gateway↔shard exchange: what one request to one shard
// costs, and who runs it.
//
//   - Everything about a request that does not change from call to call is
//     built once: a member's parsed URLs per endpoint (target) and the header
//     sets the gateway sends (Gateway.headers). An attempt assembles its
//     http.Request from those; a RoundTripper may not modify a request, so
//     sharing them between concurrent attempts is safe.
//   - A fan-out has one deadline context, created by fanout and shared by
//     every shard's exchange. The deadline reaches a blocked attempt through
//     the transport, which must honour the request context (net/http's
//     does); nothing else watches the clock.
//   - The primary attempt runs on the goroutine that already exists: shard 0
//     on the handler's, every other shard on its fan-out goroutine. Only a
//     member with a replica gets a timer, and the hedge runs on the timer's
//     goroutine; a member without one has no goroutine, channel, timer or
//     context of its own.

// endpoint indexes what the gateway asks a shard: the API methods it
// forwards to, the inventory it pulls and the health check it probes.
type endpoint int

const (
	epChargers endpoint = iota
	epWeather
	epAvailability
	epTraffic
	epOffering
	epTrip
	epInventory
	epHealthz
	numEndpoints
)

// endpointPaths are the endpoints' paths under a shard's base URL.
var endpointPaths = [numEndpoints]string{
	epChargers:     eis.APIVersion + "/chargers",
	epWeather:      eis.APIVersion + "/weather",
	epAvailability: eis.APIVersion + "/availability",
	epTraffic:      eis.APIVersion + "/traffic",
	epOffering:     eis.APIVersion + "/offering",
	epTrip:         eis.APIVersion + "/offering/trip",
	epInventory:    eis.APIVersion + "/inventory",
	epHealthz:      "/healthz", // outside the API version, on every EIS
}

// target is one base URL of a member — its primary or its replica — with
// the request URL of every endpoint parsed once.
type target struct {
	base string
	urls [numEndpoints]*url.URL
}

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
		t.urls[ep] = u
	}
	return t, nil
}

// call is what a fan-out sends to one shard — the same to every shard,
// unless the gateway searched for some of them (supplyTravel, supplyTrip) —
// and all the attempts against that shard read the same one.
type call struct {
	method string
	ep     endpoint
	// rawQuery is the client's query string, forwarded verbatim (GET
	// endpoints); body is the client's body (POST endpoints).
	rawQuery string
	body     []byte
	// header is shared between attempts and never written after it is built.
	header http.Header
}

// headerSet is one prebuilt outbound header map.
type headerSet struct {
	contentType, accept string
	h                   http.Header
}

func newHeader(contentType, accept string) http.Header {
	h := make(http.Header, 2)
	if contentType != "" {
		h["Content-Type"] = []string{contentType}
	}
	if accept != "" {
		h["Accept"] = []string{accept}
	}
	return h
}

// header returns the outbound headers for a content type and Accept value:
// one of the maps built at construction for the combinations the fan-out
// endpoints send, a fresh one for anything else (a per-charger lookup
// forwards the client's own Accept).
func (g *Gateway) header(contentType, accept string) http.Header {
	for i := range g.headers {
		if s := &g.headers[i]; s.contentType == contentType && s.accept == accept {
			return s.h
		}
	}
	return newHeader(contentType, accept)
}

// shardResult is the outcome of one logical exchange with a shard (primary
// plus any hedge): either a terminal HTTP response (any status) or an error
// meaning the shard is unreachable for this request.
type shardResult struct {
	status int
	header http.Header
	body   []byte
	err    error
	// buf is the pooled backing storage of body; release returns it.
	buf *wire.Buffer
}

// ok reports a 200 answer.
func (res *shardResult) ok() bool { return res.err == nil && res.status == http.StatusOK }

// isWire reports whether the answer came in the binary format. The gateway
// always asks for it, but a shard that predates a message kind answers JSON.
func (res *shardResult) isWire() bool { return wire.IsWire(res.header.Get("Content-Type")) }

// release returns the result's pooled body buffer; no slice of body may be
// touched afterwards.
func (res *shardResult) release() {
	if res.buf != nil {
		wire.PutBuffer(res.buf)
		res.buf, res.body = nil, nil
	}
}

// retryableStatus mirrors the client's transient-fault classification: these
// statuses mean "the shard cannot serve right now", not "the request is
// wrong", so the gateway treats them as shard failures and degrades.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// requestBody returns the body of one attempt. It has to be a NopCloser
// over a *bytes.Reader and nothing cleverer: that is the shape net/http
// knows to be in memory, and any other reader makes the transport flush the
// request head on its own — a second write syscall per exchange.
func requestBody(data []byte) io.ReadCloser { return io.NopCloser(bytes.NewReader(data)) }

// attempt performs one HTTP exchange against one target, on the gateway's
// RoundTripper: Client.Do would add only what a shard exchange never uses —
// redirect following with its header copier and body rewinding — at half a
// kilobyte per call. A shard's 3xx is therefore a terminal answer like any
// other status. The response body is read into a pooled buffer; the caller
// owns the result and must release() it. Fan-outs, probes and inventory
// pulls all come through here.
func (g *Gateway) attempt(ctx context.Context, t *target, c *call) shardResult {
	u := t.urls[c.ep]
	if c.rawQuery != "" {
		q := *u
		q.RawQuery = c.rawQuery
		u = &q
	}
	tmpl := http.Request{
		Method: c.method, URL: u, Host: u.Host, Header: c.header,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}
	if body := c.body; body != nil {
		tmpl.Body, tmpl.ContentLength = requestBody(body), int64(len(body))
		// The transport asks for a second reader when it retries the request
		// on a fresh connection.
		tmpl.GetBody = func() (io.ReadCloser, error) { return requestBody(body), nil }
	}
	resp, err := g.transport.RoundTrip(tmpl.WithContext(ctx))
	if err != nil {
		return shardResult{err: err}
	}
	defer resp.Body.Close()
	buf := wire.GetBuffer()
	if err := buf.ReadLimit(resp.Body, maxShardResponseBytes); err != nil {
		wire.PutBuffer(buf)
		return shardResult{err: err}
	}
	if int64(len(buf.B)) > maxShardResponseBytes {
		wire.PutBuffer(buf)
		return shardResult{err: fmt.Errorf("fleet: shard response exceeds %d bytes", maxShardResponseBytes)}
	}
	if retryableStatus(resp.StatusCode) {
		wire.PutBuffer(buf)
		return shardResult{err: fmt.Errorf("fleet: shard %s: HTTP %d", t.base, resp.StatusCode)}
	}
	return shardResult{status: resp.StatusCode, header: resp.Header, body: buf.B, buf: buf}
}

// exchange performs one logical exchange with a shard under the deadline ctx
// carries, on the calling goroutine, and records exactly one breaker outcome
// for it (none when the breaker refused the call).
func (g *Gateway) exchange(ctx context.Context, m *member, c *call) shardResult {
	if err := m.breaker.Allow(); err != nil {
		met.shardFailures.Inc()
		return shardResult{err: fmt.Errorf("fleet: shard %d: %w", m.index, err)}
	}
	met.shardRequests.Inc()
	var res shardResult
	if m.replica == nil || g.opts.HedgeDelay < 0 {
		res = g.attempt(ctx, m.primary, c)
	} else {
		res = g.hedged(ctx, m, c)
	}
	if res.err != nil {
		met.shardFailures.Inc()
		m.breaker.OnFailure()
	} else {
		m.breaker.OnSuccess()
	}
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
// losing replica attempt can outlive the exchange, so both attempts read a
// private copy of the call, not the pooled one.
func (g *Gateway) hedged(ctx context.Context, m *member, pooled *call) shardResult {
	c := *pooled
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

// single performs one exchange outside a fan-out, under its own deadline.
func (g *Gateway) single(ctx context.Context, m *member, c *call) shardResult {
	ctx, cancel := context.WithTimeout(ctx, g.opts.ShardTimeout)
	defer cancel()
	return g.exchange(ctx, m, c)
}

// fanout is the per-request state of one exchange with every shard, pooled
// per gateway so that a fault-free fan-out allocates nothing of its own: one
// call and one result per shard, and — for the offering merge — the decoded
// request, one decoded table per shard with its entry storage, the
// selection scratch and the merged answer, plus the scratch of the search
// the gateway may run for the shards (supplyTravel). The trip merge has the
// same: one decoded trip per shard, segment and entry storage included, and
// the merged trip, whose tables share top.
type fanout struct {
	calls   []call
	results []shardResult
	wg      sync.WaitGroup

	req    eis.OfferingRequest
	tables []eis.OfferingResponse
	sel    selection
	top    []eis.OfferingEntry
	merged eis.OfferingResponse

	trips      []eis.TripOfferingResponse
	tripMerged eis.TripOfferingResponse

	// targets holds, shard after shard, the nodes searched to on the shards'
	// behalf; seconds the travel time found at each; spans each shard's run
	// of both; block is the one being encoded. near is the walk of one
	// shard's sites that targets are read from.
	near    []spatial.Item
	targets []roadnet.NodeID
	seconds []float64
	spans   []span
	block   wire.TravelBlock

	// A trip (supplyTrip) runs one search a computed segment: targets and
	// seconds hold them one after the other, each closed by the segment's
	// return node, and back the times of the return legs. blocks are the
	// searches' heads, tripSpans each shard's run of each (block-major), terms
	// what the members could be searched for by when the plan was made. All of
	// it keeps the capacity of the largest trip seen.
	trip      eis.TripOfferingRequest
	back      []float64
	blocks    []wire.TripBlock
	tripSpans []span
	terms     []*supplyTerms
}

func (g *Gateway) getFanout() *fanout {
	if fo, ok := g.fanouts.Get().(*fanout); ok {
		return fo
	}
	n := len(g.members)
	return &fanout{
		calls: make([]call, n), results: make([]shardResult, n),
		tables: make([]eis.OfferingResponse, n), spans: make([]span, n),
		trips: make([]eis.TripOfferingResponse, n),
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
// afterwards.
func (g *Gateway) putFanout(fo *fanout) {
	for i := range fo.results {
		fo.results[i].release()
		fo.results[i] = shardResult{}
		fo.calls[i] = call{}
		fo.spans[i] = span{}
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

// fanout runs fo.calls, each against its shard, concurrently under one
// deadline and leaves the results in fo.results, indexed by shard.
func (g *Gateway) fanout(ctx context.Context, fo *fanout) {
	ctx, cancel := context.WithTimeout(ctx, g.opts.ShardTimeout)
	defer cancel()
	fo.wg.Add(len(g.members) - 1)
	for i := 1; i < len(g.members); i++ {
		go g.fanoutShard(ctx, fo, i)
	}
	fo.results[0] = g.exchange(ctx, g.members[0], &fo.calls[0])
	fo.wg.Wait()
}

func (g *Gateway) fanoutShard(ctx context.Context, fo *fanout, i int) {
	defer fo.wg.Done()
	fo.results[i] = g.exchange(ctx, g.members[i], &fo.calls[i])
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
