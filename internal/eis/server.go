package eis

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/geo"
	"ecocharge/internal/obs"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/wire"
)

// ServerOptions configure the EIS.
type ServerOptions struct {
	// CacheCellM is the spatial granularity of the server-side dynamic
	// cache: offering requests landing in the same cell share a cached
	// table. 0 selects 2 km (conservative versus the client-side Q of 5 km).
	CacheCellM float64
	// CacheTTL bounds cached table age. 0 selects 5 minutes.
	CacheTTL time.Duration
	// CacheMaxEntries bounds the response cache across all shards; a full
	// shard evicts by respShard.evictLocked's rule (expired entries, then
	// entries never read, before anything that was hit). 0 selects 4096;
	// negative disables the bound.
	CacheMaxEntries int
	// RequestTimeout is the per-request deadline, installed where a handler
	// can block (Server.deadline): the single-flight wait of /offering and
	// the routing of /offering/trip, which answer 503 with Retry-After when
	// it expires instead of holding the connection.
	// 0 selects 15 s; negative disables the deadline.
	RequestTimeout time.Duration
	// ShedRetryAfter is the Retry-After delay stamped on shed (503)
	// responses. An overloaded shard in a fleet raises it to push hedged
	// gateway traffic toward its peers for longer instead of inviting an
	// immediate re-hit. 0 selects 1 s; sub-second values round up to 1 s
	// (the header carries whole seconds).
	ShedRetryAfter time.Duration
	// Clock is overridable for tests; nil selects time.Now.
	Clock func() time.Time
	// Logger for request errors; nil silences logging.
	Logger *log.Logger
	// Tracer exports one server span per API request, joining the caller's
	// trace when the request carries propagation headers. Nil disables
	// tracing at zero cost.
	Tracer *obs.Tracer
}

func (o ServerOptions) withDefaults() ServerOptions {
	if o.CacheCellM <= 0 {
		o.CacheCellM = 2000
	}
	if o.CacheTTL <= 0 {
		o.CacheTTL = 5 * time.Minute
	}
	if o.CacheMaxEntries == 0 {
		o.CacheMaxEntries = 4096
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 15 * time.Second
	}
	if o.ShedRetryAfter <= 0 {
		o.ShedRetryAfter = time.Second
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// retryAfterSeconds renders a shed delay as the whole-second header value,
// rounding up so a positive delay never collapses to "0".
func retryAfterSeconds(d time.Duration) string {
	s := int64((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return strconv.FormatInt(s, 10)
}

// Server is the EcoCharge Information Server: it owns the environment and
// answers the consolidated-data and Mode 2 computation endpoints.
type Server struct {
	env  *cknn.Env
	opts ServerOptions

	// terms is what the response cache keys and keeps by, stated to whoever
	// pulls the inventory (CacheTerms).
	terms CacheTerms

	cache   respCache
	flights flightGroup
	// computes counts cache-miss table computations (diagnostics and the
	// single-flight tests).
	computes atomic.Int64
}

// cacheVal is one cached Offering Table, encoded when it entered the cache
// (with Cached=true, the flag every hit carries): encode once, write many.
// Hits serve stored bytes with Content-Length and never marshal a table, so
// the decoded table is not kept. The wire body is what every entry holds: a
// fleet shard is only ever asked for wire bodies, and 1.7 KB of JSON per
// entry nobody reads was the larger half of a full cache. The JSON body is
// derived from the wire one on the entry's first JSON hit and kept from then
// on (cachedJSON, respCache.keepJSON); the codec's JSON-equivalence contract — fuzzed in
// internal/wire, pinned end to end by TestChaosWireOfferingCacheParity — is
// what makes the derived body the bytes an eager encode would have stored.
// The byte slices are immutable once set, so shards hand them out without
// copying.
type cacheVal struct {
	wireBody []byte
	jsonBody []byte // nil until a JSON client hits the entry
	expires  time.Time
	// readRound is the entry's reference mark: get sets it to the round its
	// stripe is in, and eviction spares the entries that carry that round
	// (respShard.read, evictLocked). Zero is never read.
	readRound uint32
	// slot is the entry's index in its stripe's queue (bounded caches only).
	slot uint32
}

// respCacheStripes is the shard count of the response cache: enough to keep
// concurrent offering requests off each other's locks, small enough that
// the fixed array stays cheap.
const respCacheStripes = 16

// sweepEvery is the amortization interval of the per-shard expiry sweep:
// every sweepEvery-th put walks its shard and deletes expired entries, so
// the cache's steady-state size is bounded by live entries plus one sweep
// interval of garbage (the old behavior never deleted expired entries and
// leaked every key ever cached).
const sweepEvery = 64

// respCache is the server-side dynamic cache, mutex-striped so concurrent
// requests landing in different spatial cells never contend. Keys are
// hashed (FNV-1a over the key's fixed-width fields) onto a shard; each
// shard is an independently locked map.
//
// Hygiene: get deletes expired entries it touches, put sweeps its shard
// every sweepEvery insertions, and a full shard evicts before inserting
// (evictLocked; maxPerShard 0 disables the bound).
type respCache struct {
	shards [respCacheStripes]respShard
	// maxPerShard bounds each shard's entry count; 0 means unbounded.
	maxPerShard int
}

type respShard struct {
	mu   sync.Mutex
	m    map[cacheKey]cacheVal
	puts int // insertions since the last sweep
	// round is the stripe's second-chance round less one. Advancing it
	// clears the read mark of every entry at once.
	round uint32

	// queue is the order eviction goes by, kept by bounded caches only: the
	// key of every put, oldest first, from head on. Nothing but put and
	// evictLocked maintains it, so a slot may name a key that has since been
	// deleted, or cached again further down: the live slot of an entry is the
	// one at its cacheVal.slot. hand is where the search for an unread entry
	// resumes; the live slots before it were all read in the current round.
	queue      []cacheKey
	head, hand int
}

// read reports whether get returned v in the stripe's current round.
func (s *respShard) read(v cacheVal) bool { return v.readRound > s.round }

func (c *respCache) shard(key cacheKey) *respShard {
	return &c.shards[key.hash()%respCacheStripes]
}

func (c *respCache) get(key cacheKey, now time.Time) (cacheVal, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	if !ok {
		met.rescacheMisses.Inc()
		return cacheVal{}, false
	}
	if now.After(v.expires) {
		delete(s.m, key) // lazy expiry: reclaim on touch
		met.rescacheExpired.Inc()
		met.rescacheEntries.Dec()
		met.rescacheMisses.Inc()
		return cacheVal{}, false
	}
	if !s.read(v) {
		v.readRound = s.round + 1
		s.m[key] = v
	}
	met.rescacheHits.Inc()
	return v, true
}

func (c *respCache) put(key cacheKey, resp OfferingResponse, now, expires time.Time) {
	// Encode once, outside the shard lock. Every hit is served as
	// Cached=true, so the stored bytes carry the flag.
	hit := resp
	hit.Cached = true
	wireBody := wire.AppendOfferingResponse(nil, &hit)

	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[cacheKey]cacheVal)
	}
	s.puts++
	if s.puts%sweepEvery == 0 {
		for k, v := range s.m {
			if now.After(v.expires) {
				delete(s.m, k)
				met.rescacheExpired.Inc()
				met.rescacheEntries.Dec()
			}
		}
	}
	_, exists := s.m[key]
	v := cacheVal{wireBody: wireBody, expires: expires}
	if c.maxPerShard > 0 {
		if !exists && len(s.m) >= c.maxPerShard {
			s.evictLocked(now)
		}
		limit := c.queueLimit()
		if len(s.queue) == limit {
			s.compactLocked()
		}
		if len(s.queue) == cap(s.queue) {
			// Doubling as append does, but not past the limit.
			grown := make([]cacheKey, len(s.queue), min(2*len(s.queue)+1, limit))
			copy(grown, s.queue)
			s.queue = grown
		}
		v.slot = uint32(len(s.queue))
		s.queue = append(s.queue, key)
	}
	s.m[key] = v
	if !exists {
		met.rescacheEntries.Inc()
	}
}

// queueLimit is the length at which a stripe's queue is rewritten as its live
// slots, at most maxPerShard of them: a quarter more, so the queue stays that
// short however keys come and go, for a few map operations a put.
func (c *respCache) queueLimit() int { return c.maxPerShard + c.maxPerShard/4 + 1 }

// keepJSON memoises the JSON body derived from an entry's wire body, if the
// entry is still the one it was derived from.
func (c *respCache) keepJSON(key cacheKey, v cacheVal) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.m[key]; ok && &cur.wireBody[0] == &v.wireBody[0] {
		cur.jsonBody = v.jsonBody
		s.m[key] = cur
	}
}

// cachedJSON renders a cached wire body as the JSON body of the same hit:
// what json.Encoder would have written for the table when it was cached,
// trailing newline included, so cached and freshly encoded responses stay
// byte-identical.
func cachedJSON(wireBody []byte) ([]byte, error) {
	var hit OfferingResponse
	if err := wire.DecodeOfferingResponse(wireBody, &hit); err != nil {
		return nil, err
	}
	body, err := json.Marshal(&hit)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// evictLocked makes room in a full shard. Expired entries at the head of the
// queue go first, all of them: garbage is reclaimed before live data.
// Otherwise the victim is the oldest entry that has not been read — every
// entry gets the same TTL, so that is the closest to expiry among the keys
// nobody came back for, and a one-shot key goes before a cell that is hit a
// thousand times. Only when every entry has been read does the oldest of all
// go, and a new round begins: each survivor has to be read again to outlive
// the next such eviction (second chance). Clearing the marks the search goes
// over on every eviction instead would protect a cell only while it is read
// between any two evictions of its shard, which is FIFO plus one eviction
// (measured in docs/perf.md).
//
// The queue makes this O(1) amortised where a scan of the map for the
// closest expiry cost a pass over the stripe per insertion: read entries stay
// read until the round ends, so the hand passes each of them once a round,
// and head and hand only move forward between compactions. For request times
// that do not run backwards, queue order is expiry order and the victim is
// the one the scan chose (TestRespCacheEvictionMatchesScan); where they do,
// the queue's order stands and the sweep and get reclaim what expires behind
// the head.
func (s *respShard) evictLocked(now time.Time) {
	expired := 0
	for ; s.head < len(s.queue); s.head++ {
		v, live := s.live(s.head)
		if !live {
			continue
		}
		if !now.After(v.expires) {
			break
		}
		delete(s.m, s.queue[s.head])
		expired++
	}
	if s.hand < s.head {
		s.hand = s.head
	}
	if expired > 0 {
		met.rescacheExpired.Add(uint64(expired))
		met.rescacheEntries.Add(-int64(expired))
		return
	}
	for ; s.hand < len(s.queue); s.hand++ {
		if v, live := s.live(s.hand); live && !s.read(v) {
			break
		}
	}
	if s.hand == len(s.queue) {
		// Every entry has been read: none is any more, and the oldest goes.
		s.round++
		s.hand = s.head
	}
	if s.hand == len(s.queue) {
		return // nothing is queued, so nothing is cached
	}
	delete(s.m, s.queue[s.hand])
	s.hand++
	met.rescacheEvictions.Inc()
	met.rescacheEntries.Dec()
}

// live returns the entry whose slot is queue[i], if that entry is still
// cached and has not been put again since.
func (s *respShard) live(i int) (cacheVal, bool) {
	v, ok := s.m[s.queue[i]]
	return v, ok && int(v.slot) == i
}

// compactLocked rewrites the queue as its live slots, in order.
func (s *respShard) compactLocked() {
	n, hand := 0, 0
	for i := s.head; i < len(s.queue); i++ {
		v, live := s.live(i)
		if !live {
			continue
		}
		if i < s.hand {
			hand++
		}
		k := s.queue[i]
		v.slot = uint32(n)
		s.m[k] = v
		s.queue[n] = k
		n++
	}
	s.queue, s.head, s.hand = s.queue[:n], 0, hand
}

// entries reports the total cached-entry count (tests and diagnostics).
func (c *respCache) entries() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// NewServer returns a server over the environment.
func NewServer(env *cknn.Env, opts ServerOptions) *Server {
	srv := &Server{
		env:  env,
		opts: opts.withDefaults(),
	}
	srv.terms = CacheTerms{CellM: srv.opts.CacheCellM, TTL: srv.opts.CacheTTL, World: env.RoadWorld()}
	if srv.opts.CacheMaxEntries > 0 {
		per := srv.opts.CacheMaxEntries / respCacheStripes
		if per < 1 {
			per = 1
		}
		srv.cache.maxPerShard = per
	}
	return srv
}

// deadline derives the context of a request that is about to wait or to
// compute for long: the caller's, bounded by RequestTimeout. It is the one
// reader of the option, called where a handler can block — /offering past
// its cache lookup, before the single-flight, and /offering/trip before it
// routes — and not around every request: a response-cache hit returns in
// microseconds without reading its context, and a timer and a context per
// hit cost more than the hit.
func (s *Server) deadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.opts.RequestTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.opts.RequestTimeout)
}

// instrument wraps an API handler with its per-endpoint duration histogram
// and — when the server has a tracer — a server span that joins the
// caller's trace if the request carries X-Trace-Id/X-Span-Id headers. A nil
// tracer costs one histogram observation per request and nothing else.
func (s *Server) instrument(name string, hist *obs.Histogram, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		defer hist.Since(start)
		if s.opts.Tracer != nil {
			ctx := r.Context()
			if sc, ok := obs.ExtractHTTP(r.Header); ok {
				ctx = obs.ContextWith(ctx, sc)
			}
			ctx, span := s.opts.Tracer.StartSpan(ctx, name)
			defer span.End()
			r = r.WithContext(ctx)
		}
		fn(w, r)
	}
}

// Handler returns the HTTP routes of the EIS, including the observability
// surface: /metrics (Prometheus-style text exposition) and /debug/vars
// (JSON snapshot) over the process-wide default registry, which is where
// the cknn/roadnet/eis packages register their metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(APIVersion+"/chargers", s.instrument("eis.chargers", met.httpChargers, s.handleChargers))
	mux.HandleFunc(APIVersion+"/inventory", s.instrument("eis.inventory", met.httpInventory, s.handleInventory))
	mux.HandleFunc(APIVersion+"/weather", s.instrument("eis.weather", met.httpWeather, s.handleWeather))
	mux.HandleFunc(APIVersion+"/availability", s.instrument("eis.availability", met.httpAvailability, s.handleAvailability))
	mux.HandleFunc(APIVersion+"/traffic", s.instrument("eis.traffic", met.httpTraffic, s.handleTraffic))
	mux.HandleFunc(APIVersion+"/offering", s.instrument("eis.offering", met.httpOffering, s.handleOffering))
	mux.HandleFunc(APIVersion+"/offering/trip", s.instrument("eis.offering.trip", met.httpTrip, s.handleTripOffering))
	mux.Handle("/metrics", obs.Default().Handler())
	mux.Handle("/debug/vars", obs.Default().VarsHandler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = fmt.Fprintln(w, "ok") // client went away; nothing to do with the error
	})
	return mux
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	if s.opts.Logger != nil {
		s.opts.Logger.Printf("eis: %d %s", code, msg)
	}
	// Errors are always JSON, even on requests that negotiated binary:
	// failure bodies are cold and must stay curl-readable.
	WriteJSONStatus(w, code, ErrorResponse{Error: msg})
}

// writeExpired answers a request whose deadline ran out before its table was
// there: a 503 that says when to come back, not a held connection.
func (s *Server) writeExpired(w http.ResponseWriter, what string, err error) {
	w.Header().Set("Retry-After", retryAfterSeconds(s.opts.ShedRetryAfter))
	s.writeError(w, http.StatusServiceUnavailable, "%s computation did not finish in time: %v", what, err)
}

// ContentTypeJSON is the canonical interchange format; wire.ContentType is
// the negotiated binary alternative for the hot-path payloads.
const ContentTypeJSON = "application/json"

// errEncodeBody is the fallback 500 body when marshalling a response fails —
// possible only for marshaler-bearing payloads, but the old streaming
// encoder turned it into a silently truncated 200.
var errEncodeBody = []byte(`{"error":"encoding response"}` + "\n")

// jsonBufs pools the JSON encode buffers so steady-state serving reuses one
// buffer per in-flight response instead of growing a fresh one per call.
var jsonBufs = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// maxPooledJSONBuf caps the capacity a buffer may keep when returned: one
// huge inventory response must not pin megabytes in the pool forever.
const maxPooledJSONBuf = 1 << 22

func getJSONBuf() *bytes.Buffer {
	b := jsonBufs.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putJSONBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledJSONBuf {
		jsonBufs.Put(b)
	}
}

// WriteBody writes one fully-encoded response. Content-Length is known
// before the first byte hits the socket, so an encode failure can never
// truncate a 200 mid-body the way the per-call streaming encoder could. The
// shard and the fleet gateway both answer through here and through
// WriteJSONStatus, so their bodies and error texts cannot drift.
func WriteBody(w http.ResponseWriter, code int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body) // client went away; nothing to do with the error
}

// WriteJSONStatus encodes v into a pooled buffer and writes it as one JSON
// response under the status code; a payload that does not marshal becomes a
// 500, never a truncated 200.
func WriteJSONStatus(w http.ResponseWriter, code int, v interface{}) {
	buf := getJSONBuf()
	defer putJSONBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		WriteBody(w, http.StatusInternalServerError, ContentTypeJSON, errEncodeBody)
		return
	}
	WriteBody(w, code, ContentTypeJSON, buf.Bytes())
}

// WriteJSON is WriteJSONStatus for a 200.
func WriteJSON(w http.ResponseWriter, v interface{}) {
	WriteJSONStatus(w, http.StatusOK, v)
}

// wantsWire reports whether the request negotiated the binary response
// format.
func wantsWire(r *http.Request) bool { return wire.Accepts(r.Header.Get("Accept")) }

// respond writes v in the request's negotiated format: enc appends the
// binary message for payloads the wire codec covers, JSON stays the default
// (and the only format where enc is nil). The per-format histograms measure
// exactly the marshal share of serving latency.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, v interface{}, enc func([]byte) []byte) {
	if enc != nil && wantsWire(r) {
		buf := wire.GetBuffer()
		start := time.Now()
		buf.B = enc(buf.B)
		met.encodeWire.Since(start)
		met.respWire.Inc()
		WriteBody(w, http.StatusOK, wire.ContentType, buf.B)
		wire.PutBuffer(buf)
		return
	}
	buf := getJSONBuf()
	start := time.Now()
	err := json.NewEncoder(buf).Encode(v)
	met.encodeJSON.Since(start)
	if err != nil {
		putJSONBuf(buf)
		WriteBody(w, http.StatusInternalServerError, ContentTypeJSON, errEncodeBody)
		return
	}
	met.respJSON.Inc()
	WriteBody(w, http.StatusOK, ContentTypeJSON, buf.Bytes())
	putJSONBuf(buf)
}

func parseFloat(r *http.Request, name string) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("parameter %q is not a finite number", name)
	}
	return v, nil
}

// ChargerIDParam parses the "charger" query parameter of the per-charger
// endpoints: a base-10 integer and nothing else. Charger IDs are int64s, so
// "7.9", "1e3" and "NaN" name no charger — reading them as floats and
// truncating would answer for charger 7, for charger 1000, and for whatever
// integer the platform converts NaN to. The shard and the fleet gateway both
// parse through here and answer the error as a 400, so they cannot disagree.
func ChargerIDParam(r *http.Request) (int64, error) {
	raw := r.URL.Query().Get("charger")
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", "charger")
	}
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q is not an integer charger ID", "charger")
	}
	return id, nil
}

// TimeParam parses the RFC3339 query parameter name, def when it is absent;
// like ChargerIDParam, shared by the shard and the fleet gateway.
func TimeParam(r *http.Request, name string, def time.Time) (time.Time, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	t, err := time.Parse(time.RFC3339, raw)
	if err != nil {
		return time.Time{}, fmt.Errorf("parameter %q is not RFC3339: %v", name, err)
	}
	return t, nil
}

// ChargersParams parses the lat, lon and radius_m query parameters of
// /chargers; the error is the 400 a server answers with. The shard and the
// fleet gateway both parse through here: the gateway merges and synthesizes
// around exactly the point and radius the shards selected by.
func ChargersParams(r *http.Request) (geo.Point, float64, error) {
	lat, err := parseFloat(r, "lat")
	if err != nil {
		return geo.Point{}, 0, err
	}
	lon, err := parseFloat(r, "lon")
	if err != nil {
		return geo.Point{}, 0, err
	}
	radius, err := parseFloat(r, "radius_m")
	if err != nil {
		return geo.Point{}, 0, err
	}
	p := geo.Point{Lat: lat, Lon: lon}
	if !p.Valid() || radius < 0 {
		return geo.Point{}, 0, errors.New("invalid location or radius")
	}
	return p, radius, nil
}

// handleChargers returns the chargers within a radius of a location
// (the PlugShare-consolidation endpoint).
func (s *Server) handleChargers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	p, radius, err := ChargersParams(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cs := s.env.Chargers.Within(p, radius)
	s.respond(w, r, cs, func(b []byte) []byte { return wire.AppendChargerRefs(b, cs) })
}

// handleInventory returns the server's complete charger inventory. For a
// sharded instance that is the owned partition; the fleet gateway caches it
// per shard so unreachable partitions degrade to ignorance-bound entries
// instead of disappearing from Offering Tables. The answer's headers state
// the server's CacheTerms.
func (s *Server) handleInventory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.terms.set(w.Header())
	cs := s.env.Chargers.All()
	s.respond(w, r, cs, func(b []byte) []byte { return wire.AppendChargers(b, cs) })
}

// handleWeather returns the production forecast of a charger at a time
// (the OpenWeatherMap-consolidation endpoint).
func (s *Server) handleWeather(w http.ResponseWriter, r *http.Request) {
	c, at, ok := s.chargerAndTime(w, r)
	if !ok {
		return
	}
	iv := s.env.ProductionForecast(c, at, s.opts.Clock())
	resp := WeatherResponse{ChargerID: c.ID, At: at, ProductionKW: toWire(iv)}
	s.respond(w, r, &resp, func(b []byte) []byte { return wire.AppendWeather(b, &resp) })
}

// handleAvailability returns the availability estimate of a charger
// (the busy-timetable endpoint).
func (s *Server) handleAvailability(w http.ResponseWriter, r *http.Request) {
	c, at, ok := s.chargerAndTime(w, r)
	if !ok {
		return
	}
	iv := s.env.Avail.ForecastAvailability(c.ID, &c.Timetable, at, s.opts.Clock())
	resp := AvailabilityResponse{ChargerID: c.ID, At: at, Availability: toWire(iv)}
	s.respond(w, r, &resp, func(b []byte) []byte { return wire.AppendAvailability(b, &resp) })
}

func (s *Server) chargerAndTime(w http.ResponseWriter, r *http.Request) (c *charger.Charger, at time.Time, ok bool) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return nil, time.Time{}, false
	}
	id, err := ChargerIDParam(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return nil, time.Time{}, false
	}
	c, found := s.env.Chargers.ByID(id)
	if !found {
		s.writeError(w, http.StatusNotFound, "charger %d not found", id)
		return nil, time.Time{}, false
	}
	at, err = TimeParam(r, "t", s.opts.Clock())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return nil, time.Time{}, false
	}
	return c, at, true
}

// handleTraffic returns the congestion band per road class (the GIS
// traffic endpoint).
func (s *Server) handleTraffic(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	at, err := TimeParam(r, "t", s.opts.Clock())
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	now := s.opts.Clock()
	resp := TrafficResponse{At: at, Multiplier: make(map[string]IntervalJSON, 4)}
	for c := roadnet.RoadClass(0); c < 4; c++ {
		resp.Multiplier[c.String()] = toWire(s.env.Traffic.ForecastMultiplier(c, at, now))
	}
	WriteJSON(w, resp)
}

// handleOffering is the Mode 2 endpoint: the server runs Algorithm 1 for
// the posted query, consulting (and feeding) its response cache. The ranking
// itself is one-shot — no R/Q dynamic cache: the next query of the same cell
// is answered from the response cache, not adapted.
func (s *Server) handleOffering(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	const maxOfferingBody = 1 << 20
	body := http.MaxBytesReader(w, r.Body, maxOfferingBody)
	var (
		req OfferingRequest
		err error
	)
	wireReq := wire.IsWire(r.Header.Get("Content-Type"))
	if wireReq {
		buf := wire.GetBuffer()
		if err = buf.ReadLimit(body, maxOfferingBody); err == nil {
			err = wire.DecodeOfferingRequest(buf.B, &req)
		}
		wire.PutBuffer(buf)
	} else {
		req, err = decodeJSONOffering(body)
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if wireReq {
		met.reqWire.Inc()
	}
	o, err := ResolveOffering(&req, s.opts.Clock)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	key := offeringKey(s.opts.CacheCellM, &o)
	if v, ok := s.cache.get(key, o.Now); ok {
		// Write-many: the table was encoded (Cached=true) when it entered
		// the cache; a hit costs one header write and one body write, no
		// marshalling — but for the first JSON hit of an entry.
		if wantsWire(r) {
			met.respWire.Inc()
			WriteBody(w, http.StatusOK, wire.ContentType, v.wireBody)
			return
		}
		if v.jsonBody == nil {
			if v.jsonBody, err = cachedJSON(v.wireBody); err != nil {
				WriteBody(w, http.StatusInternalServerError, ContentTypeJSON, errEncodeBody)
				return
			}
			s.cache.keepJSON(key, v)
		}
		met.respJSON.Inc()
		WriteBody(w, http.StatusOK, ContentTypeJSON, v.jsonBody)
		return
	}

	// The query point is snapped here unless the request brought its
	// network search along, which starts from the node its sender snapped
	// the point to.
	node := roadnet.Invalid
	if req.Travel == nil {
		if node = s.env.Graph.NearestNode(o.P); node == roadnet.Invalid {
			s.writeError(w, http.StatusUnprocessableEntity, "location not on the road network")
			return
		}
	}

	// Single-flight: concurrent cache misses for the same cell collapse to
	// one computation; followers wait for the leader's table (or their own
	// deadline) instead of stampeding the ranking engine.
	ctx, cancel := s.deadline(r.Context())
	defer cancel()
	resp, shared, err := s.flights.do(ctx, key, func() OfferingResponse {
		s.computes.Add(1)
		table := s.rankOffering(&o, node, req.Travel)
		out := OfferingResponse{GeneratedAt: o.Now}
		for _, e := range table.Entries {
			out.Entries = append(out.Entries, wireEntry(e))
		}
		s.cache.put(key, out, o.Now, o.Now.Add(s.opts.CacheTTL))
		return out
	})
	if err != nil {
		s.writeExpired(w, "offering", err)
		return
	}
	resp.Cached = resp.Cached || shared
	s.respond(w, r, &resp, func(b []byte) []byte { return wire.AppendOfferingResponse(b, &resp) })
}

// rankOffering computes the table of one offering request: on the network
// search the request brought along (a fleet gateway's travel block) when it
// brought one that covers the ranking, else on a search of its own from node,
// the query point's node — snapped now, if a block that is then refused was
// to make that unnecessary. The table is the same either way.
func (s *Server) rankOffering(o *Offering, node roadnet.NodeID, block *wire.TravelBlock) cknn.OfferingTable {
	q := o.Query(node)
	opts := cknn.EcoChargeOptions{RadiusM: o.RadiusM}
	if block != nil {
		travel := cknn.Travel{Anchor: block.Anchor, Return: roadnet.Invalid, ScaleLo: block.ScaleLo, ScaleHi: block.ScaleHi, Times: block}
		if table, ok := cknn.RankOnceSupplied(s.env, opts, q, &travel); ok {
			met.travelUsed.Inc()
			return table
		}
		met.travelRejected.Inc()
		q.AnchorNode = s.env.Graph.NearestNode(o.P)
		q.ReturnNode = q.AnchorNode
	}
	return cknn.RankOnce(s.env, opts, q)
}

// decodeJSONOffering is apart from handleOffering so that the request it
// hands to encoding/json escapes to the heap here, on the JSON plane, and not
// in every call of the handler.
func decodeJSONOffering(body io.Reader) (OfferingRequest, error) {
	var req OfferingRequest
	err := json.NewDecoder(body).Decode(&req)
	return req, err
}

// flightGroup collapses concurrent computations of the same cache key into
// one: the first caller becomes the leader and computes, followers block on
// the leader's result or their own context, whichever ends first. The leader
// always runs to completion so its work lands in the cache even when every
// waiter gave up.
type flightGroup struct {
	mu sync.Mutex
	m  map[cacheKey]*flight
}

type flight struct {
	done chan struct{}
	resp OfferingResponse
}

// do returns the response, whether it was shared from another caller's
// computation, and a context error when the wait was abandoned.
func (g *flightGroup) do(ctx context.Context, key cacheKey, fn func() OfferingResponse) (OfferingResponse, bool, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[cacheKey]*flight)
	}
	if f, ok := g.m[key]; ok {
		g.mu.Unlock()
		met.flightCoalesced.Inc()
		select {
		case <-f.done:
			return f.resp, true, nil
		case <-ctx.Done():
			return OfferingResponse{}, true, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()
	met.flightLeads.Inc()

	f.resp = fn()
	close(f.done)

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	return f.resp, false, nil
}
