package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/eis"
	"ecocharge/internal/geo"
	"ecocharge/internal/obs"
	"ecocharge/internal/wire"
)

// Shard names one fleet member: its primary base URL and an optional
// replica the gateway hedges slow or failing primaries against.
type Shard struct {
	URL     string
	Replica string
}

// Options configure the gateway.
type Options struct {
	// ShardTimeout is the per-shard deadline of one fan-out exchange; a
	// shard that has not answered by then is cancelled and treated as dead
	// for this request. 0 selects 2 s.
	ShardTimeout time.Duration
	// HedgeDelay is how long the gateway waits on the primary before firing
	// the hedged request at the replica (when the shard has one). A shard
	// whose last probe failed is hedged immediately. 0 selects 250 ms;
	// negative disables hedging even for probe-failed shards.
	HedgeDelay time.Duration
	// ProbeInterval is the active health-check period. 0 selects 2 s.
	ProbeInterval time.Duration
	// BreakerThreshold and BreakerCooldown configure each shard's circuit
	// breaker (consecutive faults to open; open time before the half-open
	// trial). Zero values select 5 faults and 5 s.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// HTTPClient performs shard exchanges and probes; nil selects a fresh
	// default client (deadlines come from request contexts, not the client).
	HTTPClient *http.Client
	// Clock is overridable for tests; nil selects time.Now.
	Clock func() time.Time
	// Logger for degraded merges and shard errors; nil silences logging.
	Logger *log.Logger
	// WireShards negotiates the binary format of internal/wire on the
	// shard-side exchanges whose payloads the codec covers (charger fan-out
	// and offering merges). The client-facing format is negotiated
	// independently per request, and a shard without the codec keeps
	// answering JSON — the gateway decodes by Content-Type — so mixed fleets
	// work during a rollout.
	WireShards bool
}

func (o Options) withDefaults() Options {
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 2 * time.Second
	}
	if o.HedgeDelay == 0 {
		o.HedgeDelay = 250 * time.Millisecond
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// maxShardResponseBytes bounds one shard response (the inventory of a large
// shard is the biggest payload the gateway handles).
const maxShardResponseBytes int64 = 32 << 20

// Gateway is the stateless fleet front: it owns no environment, only the
// shard membership (addresses, breakers, probe verdicts, inventory caches)
// and the merge logic. Everything it serves is reconstructed per request
// from shard answers, so any gateway instance can serve any request.
type Gateway struct {
	members []*member
	part    Partition
	opts    Options
}

// NewGateway returns a gateway over the shards, in shard-index order (the
// order must match the partition the shard environments were built with).
func NewGateway(shards []Shard, opts Options) (*Gateway, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("fleet: gateway needs at least one shard")
	}
	opts = opts.withDefaults()
	g := &Gateway{part: Partition{N: len(shards)}, opts: opts}
	for i, s := range shards {
		m, err := newMember(i, s, opts.BreakerThreshold, opts.BreakerCooldown, opts.Clock)
		if err != nil {
			return nil, err
		}
		g.members = append(g.members, m)
	}
	return g, nil
}

func (g *Gateway) logf(format string, args ...interface{}) {
	if g.opts.Logger != nil {
		g.opts.Logger.Printf("gateway: "+format, args...)
	}
}

// shardResult is the outcome of one logical exchange with a shard (primary
// plus any hedge): either a terminal HTTP response (any status) or an error
// meaning the shard is unreachable for this request.
type shardResult struct {
	status      int
	body        []byte
	contentType string
	retryAfter  string
	err         error
	// buf is the pooled backing storage of body; release returns it. A
	// hedge loser that lands after its exchange returned is simply dropped —
	// its buffer falls to the GC instead of the pool, which is safe.
	buf *wire.Buffer
}

// release returns the result's pooled body buffer; neither the result nor
// any slice of body may be touched afterwards.
func (res *shardResult) release() {
	if res != nil && res.buf != nil {
		wire.PutBuffer(res.buf)
		res.buf, res.body = nil, nil
	}
}

// releaseAll releases every fan-out result's pooled body.
func releaseAll(results []*shardResult) {
	for _, res := range results {
		res.release()
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

// attempt performs one HTTP exchange against one base URL. The body is read
// into a pooled buffer (the old per-attempt ReadAll re-grew a slice on every
// exchange); the caller owns the result and must release() it.
func (g *Gateway) attempt(ctx context.Context, base, method, pathq string, body []byte, contentType, accept string) *shardResult {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+pathq, rd)
	if err != nil {
		return &shardResult{err: err}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := g.opts.HTTPClient.Do(req)
	if err != nil {
		return &shardResult{err: err}
	}
	defer resp.Body.Close()
	buf := wire.GetBuffer()
	if err := buf.ReadLimit(resp.Body, maxShardResponseBytes); err != nil {
		wire.PutBuffer(buf)
		return &shardResult{err: err}
	}
	if int64(len(buf.B)) > maxShardResponseBytes {
		wire.PutBuffer(buf)
		return &shardResult{err: fmt.Errorf("fleet: shard response exceeds %d bytes", maxShardResponseBytes)}
	}
	if retryableStatus(resp.StatusCode) {
		wire.PutBuffer(buf)
		return &shardResult{err: fmt.Errorf("fleet: shard %s: HTTP %d", base, resp.StatusCode)}
	}
	return &shardResult{
		status:      resp.StatusCode,
		body:        buf.B,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		buf:         buf,
	}
}

// exchange performs one logical exchange with a shard under the per-shard
// deadline: the primary immediately, the replica after the hedge delay (or
// at once when the shard's last probe failed, or as failover when the
// primary fails first). The first terminal answer wins; a late loser is
// cancelled by the shared context. Exactly one breaker outcome is recorded
// per exchange.
func (g *Gateway) exchange(ctx context.Context, m *member, method, pathq string, body []byte, contentType, accept string) *shardResult {
	if err := m.breaker.Allow(); err != nil {
		met.shardFailures.Inc()
		return &shardResult{err: fmt.Errorf("fleet: shard %d: %w", m.index, err)}
	}
	ctx, cancel := context.WithTimeout(ctx, g.opts.ShardTimeout)
	defer cancel()

	type attempt struct {
		res    *shardResult
		hedged bool
	}
	ch := make(chan attempt, 2)
	do := func(base string, hedged bool) {
		ch <- attempt{res: g.attempt(ctx, base, method, pathq, body, contentType, accept), hedged: hedged}
	}
	met.shardRequests.Inc()
	//ecolint:ignore nakedgo do reports into ch (buffered for both attempts) and the attempt is bounded by the exchange context
	go do(m.baseURL, false)

	var hedgeC <-chan time.Time
	hedgeable := m.replica != "" && g.opts.HedgeDelay >= 0
	if hedgeable {
		delay := g.opts.HedgeDelay
		if !m.probeOK.Load() {
			delay = 0
		}
		timer := time.NewTimer(delay)
		defer timer.Stop()
		hedgeC = timer.C
	}
	fireHedge := func() {
		hedgeC = nil
		hedgeable = false
		met.hedgesFired.Inc()
		met.shardRequests.Inc()
		//ecolint:ignore nakedgo do reports into ch (buffered for both attempts) and the attempt is bounded by the exchange context
		go do(m.replica, true)
	}

	pending := 1
	var firstErr *shardResult
	for {
		select {
		case <-hedgeC:
			fireHedge()
			pending++
		case a := <-ch:
			if a.res.err == nil {
				if a.hedged {
					met.hedgeWins.Inc()
				}
				m.breaker.OnSuccess()
				return a.res
			}
			if firstErr == nil {
				firstErr = a.res
			}
			pending--
			if pending == 0 {
				if hedgeable {
					// The primary failed before the hedge timer: fail over to
					// the replica for the remainder of the deadline.
					fireHedge()
					pending++
					continue
				}
				met.shardFailures.Inc()
				m.breaker.OnFailure()
				return firstErr
			}
		case <-ctx.Done():
			met.shardFailures.Inc()
			m.breaker.OnFailure()
			return &shardResult{err: fmt.Errorf("fleet: shard %d: %w", m.index, ctx.Err())}
		}
	}
}

// fanout runs one exchange against every shard concurrently and returns the
// results indexed by shard.
func (g *Gateway) fanout(ctx context.Context, method, pathq string, body []byte, contentType, accept string) []*shardResult {
	results := make([]*shardResult, len(g.members))
	done := make(chan int, len(g.members))
	for i, m := range g.members {
		go func(i int, m *member) {
			results[i] = g.exchange(ctx, m, method, pathq, body, contentType, accept)
			done <- i
		}(i, m)
	}
	for range g.members {
		<-done
	}
	return results
}

// shardAccept is the Accept header value of shard-side exchanges on the
// binary-covered payloads; empty keeps the shards' JSON default.
func (g *Gateway) shardAccept() string {
	if g.opts.WireShards {
		return wire.ContentType
	}
	return ""
}

func (g *Gateway) writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	g.logf("%d %s", code, msg)
	writeJSONStatus(w, code, eis.ErrorResponse{Error: msg})
}

// writeUnavailable is the all-shards-dead answer: an honest 503 with a
// Retry-After hint, never a fabricated table.
func (g *Gateway) writeUnavailable(w http.ResponseWriter, what string) {
	w.Header().Set("Retry-After", "1")
	g.writeError(w, http.StatusServiceUnavailable, "no shard could serve %s", what)
}

const ctJSON = "application/json"

// errEncodeBody is the fallback 500 body when marshalling a response fails;
// the old streaming encoder silently truncated a 200 instead.
var errEncodeBody = []byte(`{"error":"encoding response"}` + "\n")

// jsonBufs pools the gateway's JSON encode buffers (the twin of the EIS
// server's pool): encode into a reusable buffer, set Content-Length, write
// once.
var jsonBufs = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// maxPooledJSONBuf caps the capacity a returned buffer may keep.
const maxPooledJSONBuf = 1 << 22

func writeBody(w http.ResponseWriter, code int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body) // client went away; nothing to do with the error
}

func writeJSONStatus(w http.ResponseWriter, code int, v interface{}) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonBufs.Put(buf)
		writeBody(w, http.StatusInternalServerError, ctJSON, errEncodeBody)
		return
	}
	writeBody(w, code, ctJSON, buf.Bytes())
	if buf.Cap() <= maxPooledJSONBuf {
		jsonBufs.Put(buf)
	}
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	writeJSONStatus(w, http.StatusOK, v)
}

// respond writes a merged result to the client in its negotiated format:
// enc appends the binary message for payloads the wire codec covers, JSON
// stays the default. Degraded synth responses and errors are always JSON.
func (g *Gateway) respond(w http.ResponseWriter, r *http.Request, v interface{}, enc func([]byte) []byte) {
	if enc != nil && wire.Accepts(r.Header.Get("Accept")) {
		buf := wire.GetBuffer()
		buf.B = enc(buf.B)
		writeBody(w, http.StatusOK, wire.ContentType, buf.B)
		wire.PutBuffer(buf)
		return
	}
	writeJSONStatus(w, http.StatusOK, v)
}

// passthrough relays a shard's terminal response verbatim, so error bodies
// (and their statuses) stay byte-identical to the single-EIS deployment.
func passthrough(w http.ResponseWriter, res *shardResult) {
	if res.contentType != "" {
		w.Header().Set("Content-Type", res.contentType)
	}
	if res.retryAfter != "" {
		w.Header().Set("Retry-After", res.retryAfter)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// degradedHeader names the shards a response was widened for. It is only
// present on degraded responses, so fault-free traffic stays byte-identical
// header-wise too.
const degradedHeader = "X-Fleet-Degraded"

func markDegraded(w http.ResponseWriter, dead []int, synthesized int) {
	parts := make([]string, len(dead))
	for i, d := range dead {
		parts[i] = strconv.Itoa(d)
	}
	w.Header().Set(degradedHeader, strings.Join(parts, ","))
	met.degradedMerges.Inc()
	met.degradedEntries.Add(uint64(synthesized))
}

// splitResults partitions fan-out results into live decoded 200 bodies (in
// shard-index order), the lowest-index terminal non-200 (for pass-through),
// and the dead shard indexes.
func splitResults(results []*shardResult) (ok []int, bad *shardResult, dead []int) {
	for i, res := range results {
		switch {
		case res.err != nil:
			dead = append(dead, i)
		case res.status != http.StatusOK:
			if bad == nil {
				bad = res
			}
		default:
			ok = append(ok, i)
		}
	}
	return ok, bad, dead
}

// Handler returns the gateway's HTTP surface: the six consolidated EIS
// methods (chargers, weather, availability, traffic, offering,
// offering/trip) plus the observability endpoints and the fleet status
// view.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(eis.APIVersion+"/chargers", g.timed(met.httpChargers, g.handleChargers))
	mux.HandleFunc(eis.APIVersion+"/weather", g.timed(met.httpWeather, g.handleWeather))
	mux.HandleFunc(eis.APIVersion+"/availability", g.timed(met.httpAvail, g.handleAvailability))
	mux.HandleFunc(eis.APIVersion+"/traffic", g.timed(met.httpTraffic, g.handleTraffic))
	mux.HandleFunc(eis.APIVersion+"/offering", g.timed(met.httpOffering, g.handleOffering))
	mux.HandleFunc(eis.APIVersion+"/offering/trip", g.timed(met.httpTrip, g.handleTrip))
	mux.Handle("/metrics", obs.Default().Handler())
	mux.Handle("/debug/vars", obs.Default().VarsHandler())
	mux.HandleFunc("/fleet/status", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, g.Status())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = fmt.Fprintln(w, "ok")
	})
	return mux
}

func (g *Gateway) timed(hist *obs.Histogram, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer hist.Since(start)
		fn(w, r)
	}
}

// ---- chargers ----

func (g *Gateway) handleChargers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		g.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	pathq := eis.APIVersion + "/chargers?" + r.URL.RawQuery
	results := g.fanout(r.Context(), http.MethodGet, pathq, nil, "", g.shardAccept())
	defer releaseAll(results)
	ok, bad, dead := splitResults(results)
	if bad != nil {
		passthrough(w, bad)
		return
	}
	if len(ok) == 0 {
		g.writeUnavailable(w, "chargers")
		return
	}
	lists := make([][]charger.Charger, 0, len(g.members))
	for _, i := range ok {
		l, err := decodeChargerList(results[i])
		if err != nil {
			g.writeError(w, http.StatusBadGateway, "shard %d: decoding chargers: %v", i, err)
			return
		}
		lists = append(lists, l)
	}
	p, radius, paramsOK := chargersParams(r)
	synthesized := 0
	if paramsOK {
		for _, i := range dead {
			matched := 0
			for _, c := range g.members[i].chargers() {
				if geo.Distance(p, c.P) <= radius {
					matched++
				}
			}
			if matched > 0 {
				inRange := make([]charger.Charger, 0, matched)
				for _, c := range g.members[i].chargers() {
					if geo.Distance(p, c.P) <= radius {
						inRange = append(inRange, c)
					}
				}
				lists = append(lists, inRange)
				synthesized += matched
			}
		}
	}
	if len(dead) > 0 {
		markDegraded(w, dead, synthesized)
		g.logf("chargers served degraded: shards %v down", dead)
	}
	merged := mergeChargers(lists, p)
	g.respond(w, r, merged, func(b []byte) []byte { return wire.AppendChargers(b, merged) })
}

// decodeChargerList decodes one shard's charger payload by its Content-Type,
// timing the per-format decode share of the fan-out.
func decodeChargerList(res *shardResult) ([]charger.Charger, error) {
	start := time.Now()
	if wire.IsWire(res.contentType) {
		l, err := wire.DecodeChargers(res.body, nil)
		met.decodeWire.Since(start)
		return l, err
	}
	var l []charger.Charger
	err := json.Unmarshal(res.body, &l)
	met.decodeJSON.Since(start)
	return l, err
}

// chargersParams mirrors the shard-side parameter handling of /chargers;
// when it fails the shards have already produced the canonical 400, so the
// values are only used for sorting and dead-shard synthesis.
func chargersParams(r *http.Request) (geo.Point, float64, bool) {
	q := r.URL.Query()
	lat, err1 := strconv.ParseFloat(q.Get("lat"), 64)
	lon, err2 := strconv.ParseFloat(q.Get("lon"), 64)
	radius, err3 := strconv.ParseFloat(q.Get("radius_m"), 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return geo.Point{}, 0, false
	}
	return geo.Point{Lat: lat, Lon: lon}, radius, true
}

// ---- weather / availability (single-owner pass-through) ----

func (g *Gateway) handleWeather(w http.ResponseWriter, r *http.Request) {
	g.perCharger(w, r, "weather", func(c charger.Charger, at time.Time) interface{} {
		// Honest fallback: the site cannot produce more than its nameplate
		// renewable capacity, and might produce nothing.
		return degradedWeather{
			ChargerID:    c.ID,
			At:           at,
			ProductionKW: eis.IntervalJSON{Min: 0, Max: c.PanelKW + c.WindKW},
			Degraded:     true,
		}
	})
}

func (g *Gateway) handleAvailability(w http.ResponseWriter, r *http.Request) {
	g.perCharger(w, r, "availability", func(c charger.Charger, at time.Time) interface{} {
		return degradedAvailability{
			ChargerID:    c.ID,
			At:           at,
			Availability: ignoranceWire(),
			Degraded:     true,
		}
	})
}

// degradedWeather and degradedAvailability extend the shard wire forms with
// the degraded marker; the shard forms stay untouched so fault-free traffic
// is byte-identical.
type degradedWeather struct {
	ChargerID    int64            `json:"charger_id"`
	At           time.Time        `json:"at"`
	ProductionKW eis.IntervalJSON `json:"production_kw"`
	Degraded     bool             `json:"degraded"`
}

type degradedAvailability struct {
	ChargerID    int64            `json:"charger_id"`
	At           time.Time        `json:"at"`
	Availability eis.IntervalJSON `json:"availability"`
	Degraded     bool             `json:"degraded"`
}

// perCharger serves one of the per-charger estimate endpoints: pass-through
// from the owning shard — the rendezvous partition names it with no shared
// state — when it answers, a synthesized ignorance-bound response from its
// cached inventory when it does not. A charger parameter that is not an
// integer is answered here, with the 400 a shard would give: there is no
// owner to ask.
func (g *Gateway) perCharger(w http.ResponseWriter, r *http.Request, what string, synth func(charger.Charger, time.Time) interface{}) {
	if r.Method != http.MethodGet {
		g.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id, err := eis.ChargerIDParam(r)
	if err != nil {
		g.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	m := g.members[g.part.ShardOf(id)]
	pathq := eis.APIVersion + "/" + what + "?" + r.URL.RawQuery
	// Forward the client's own Accept header: when the client negotiated
	// binary the shard's encoded bytes pass through with no gateway
	// decode/re-encode at all.
	res := g.exchange(r.Context(), m, http.MethodGet, pathq, nil, "", r.Header.Get("Accept"))
	defer res.release()
	if res.err == nil {
		passthrough(w, res)
		return
	}
	for _, c := range m.chargers() {
		if c.ID == id {
			at := g.opts.Clock()
			if raw := r.URL.Query().Get("t"); raw != "" {
				t, terr := time.Parse(time.RFC3339, raw)
				if terr != nil {
					g.writeError(w, http.StatusBadRequest, "parameter %q is not RFC3339: %v", "t", terr)
					return
				}
				at = t
			}
			markDegraded(w, []int{m.index}, 1)
			g.logf("%s for charger %d served degraded: shard %d down", what, c.ID, m.index)
			writeJSON(w, synth(c, at))
			return
		}
	}
	// Unknown charger on a dead shard: without its inventory the gateway
	// cannot even confirm existence — an honest 503 beats a guessed 404.
	g.writeUnavailable(w, what)
}

// ---- traffic (any-shard pass-through) ----

// handleTraffic serves the fleet-global congestion bands from any shard
// (every shard holds the same traffic model), preferring healthy members.
func (g *Gateway) handleTraffic(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		g.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	order := make([]*member, len(g.members))
	copy(order, g.members)
	sort.SliceStable(order, func(i, j int) bool {
		return trafficRank(order[i]) < trafficRank(order[j])
	})
	pathq := eis.APIVersion + "/traffic?" + r.URL.RawQuery
	for _, m := range order {
		res := g.exchange(r.Context(), m, http.MethodGet, pathq, nil, "", r.Header.Get("Accept"))
		if res.err == nil {
			passthrough(w, res)
			res.release()
			return
		}
		res.release()
	}
	g.writeUnavailable(w, "traffic")
}

// trafficRank orders members for any-shard reads: fully healthy first, then
// open-breaker last; index order inside each class keeps the choice
// deterministic.
func trafficRank(m *member) int {
	switch {
	case m.probeOK.Load() && !m.breaker.Open():
		return 0
	case !m.breaker.Open():
		return 1
	default:
		return 2
	}
}

// ---- offering ----

// offeringParams applies the shard-side request defaulting so the gateway
// selects and synthesizes with exactly the parameters the shards ranked
// under.
func offeringParams(req eis.OfferingRequest) (k int, radius float64, weights cknn.Weights, ok bool) {
	k = req.K
	if k <= 0 {
		k = 3
	}
	radius = req.RadiusM
	if radius <= 0 {
		radius = 50000
	}
	if req.Weights == (eis.WeightsJSON{}) {
		weights = cknn.EqualWeights()
	} else {
		weights = cknn.Weights{L: req.Weights.L, A: req.Weights.A, D: req.Weights.D}
		if weights.Validate() != nil {
			return 0, 0, cknn.Weights{}, false
		}
		weights = weights.Normalized()
	}
	return k, radius, weights, true
}

func (g *Gateway) handleOffering(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		g.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		g.writeError(w, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	// The body is forwarded with the client's own Content-Type: a binary
	// Mode 2 request travels to the shards verbatim, no transcoding.
	reqCT := r.Header.Get("Content-Type")
	if reqCT == "" {
		reqCT = ctJSON
	}
	results := g.fanout(r.Context(), http.MethodPost, eis.APIVersion+"/offering", body, reqCT, g.shardAccept())
	defer releaseAll(results)
	ok, bad, dead := splitResults(results)
	if bad != nil {
		passthrough(w, bad)
		return
	}
	if len(ok) == 0 {
		g.writeUnavailable(w, "offering")
		return
	}
	live := make([]eis.OfferingResponse, 0, len(ok))
	for _, i := range ok {
		var t eis.OfferingResponse
		start := time.Now()
		if wire.IsWire(results[i].contentType) {
			err = wire.DecodeOfferingResponse(results[i].body, &t)
			met.decodeWire.Since(start)
		} else {
			err = json.Unmarshal(results[i].body, &t)
			met.decodeJSON.Since(start)
		}
		if err != nil {
			g.writeError(w, http.StatusBadGateway, "shard %d: decoding offering: %v", i, err)
			return
		}
		live = append(live, t)
	}
	var req eis.OfferingRequest
	reqParsed := false
	if wire.IsWire(reqCT) {
		reqParsed = wire.DecodeOfferingRequest(body, &req) == nil
	} else {
		reqParsed = json.Unmarshal(body, &req) == nil
	}
	var synth []eis.OfferingEntry
	k := 3
	if reqParsed {
		var radius float64
		var weights cknn.Weights
		var paramsOK bool
		k, radius, weights, paramsOK = offeringParams(req)
		if paramsOK {
			anchor := geo.Point{Lat: req.Lat, Lon: req.Lon}
			for _, i := range dead {
				synth = append(synth, synthWithin(g.members[i].chargers(), anchor, radius, weights)...)
			}
		}
	}
	if len(dead) > 0 {
		markDegraded(w, dead, len(synth))
		g.logf("offering served degraded: shards %v down, %d entries widened", dead, len(synth))
	}
	merged := mergeOffering(live, synth, k)
	g.respond(w, r, &merged, func(b []byte) []byte { return wire.AppendOfferingResponse(b, &merged) })
}

// ---- offering/trip ----

func (g *Gateway) handleTrip(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		g.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		g.writeError(w, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	// Trip offerings stay JSON end to end (the segment-shaped payload is not
	// in the binary codec's hot set).
	results := g.fanout(r.Context(), http.MethodPost, eis.APIVersion+"/offering/trip", body, ctJSON, "")
	defer releaseAll(results)
	ok, bad, dead := splitResults(results)
	if bad != nil {
		passthrough(w, bad)
		return
	}
	if len(ok) == 0 {
		g.writeUnavailable(w, "offering/trip")
		return
	}
	live := make([]eis.TripOfferingResponse, 0, len(ok))
	for _, i := range ok {
		var t eis.TripOfferingResponse
		if err := json.Unmarshal(results[i].body, &t); err != nil {
			g.writeError(w, http.StatusBadGateway, "shard %d: decoding trip offering: %v", i, err)
			return
		}
		live = append(live, t)
	}
	var req eis.TripOfferingRequest
	k := 3
	var synthAt func(geo.Point) []eis.OfferingEntry
	if json.Unmarshal(body, &req) == nil {
		ko, radius, weights, paramsOK := offeringParams(eis.OfferingRequest{K: req.K, RadiusM: req.RadiusM, Weights: req.Weights})
		if paramsOK {
			k = ko
			if len(dead) > 0 {
				deadInv := make([][]charger.Charger, 0, len(dead))
				for _, i := range dead {
					deadInv = append(deadInv, g.members[i].chargers())
				}
				synthAt = func(anchor geo.Point) []eis.OfferingEntry {
					var out []eis.OfferingEntry
					for _, inv := range deadInv {
						out = append(out, synthWithin(inv, anchor, radius, weights)...)
					}
					return out
				}
			}
		}
	}
	merged, err := mergeTrips(live, synthAt, k)
	if err != nil {
		g.writeError(w, http.StatusBadGateway, "%v", err)
		return
	}
	if len(dead) > 0 {
		synthesized := 0
		for _, seg := range merged.Segments {
			for _, e := range seg.Entries {
				if e.Degraded&uint8(cknn.DegradedShard) != 0 {
					synthesized++
				}
			}
		}
		markDegraded(w, dead, synthesized)
		g.logf("trip offering served degraded: shards %v down", dead)
	}
	writeJSON(w, merged)
}
