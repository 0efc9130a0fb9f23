package eis

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ecocharge/internal/cknn"
	"ecocharge/internal/obs"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/wire"
)

// ServerOptions configure the EIS.
type ServerOptions struct {
	// RequestTimeout is the per-request deadline, installed where a handler
	// can block (withTimeout): a follower's single-flight wait on /offering
	// and the routing of /offering/trip, which answer 503 with Retry-After
	// when it expires instead of holding the connection.
	// 0 selects 15 s; negative disables the deadline.
	RequestTimeout time.Duration
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
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 15 * time.Second
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// cacheMaxEntries bounds the response cache across all its stripes. A full
// stripe stores only a key that was asked for before (respCache.admits), and
// makes room for it by dropping its oldest live entry
// (respShard.evictLocked); every put first reclaims the expired entries at
// the head of the stripe's queue (reclaimLocked).
const cacheMaxEntries = 4096

// The response cache's key and lifetime are the same in every server, so a
// fleet gateway computes the key a shard files a request under
// (Offering.KeyHash) instead of being told how.
const (
	// cacheCellM is the cache's spatial granularity: offering requests
	// landing in the same cell of cacheCellM meters share a cached table,
	// conservative versus the client-side Q of 5 km.
	cacheCellM = 2000
	// cacheTTL bounds a cached table's age, in the request's own time.
	cacheTTL = 5 * time.Minute
)

// Server is the EcoCharge Information Server: it owns the environment and
// answers the Mode 2 computation endpoints, and the consolidated-data ones
// through its Feeds.
type Server struct {
	env  *cknn.Env
	opts ServerOptions

	// world is the road world the rankings search (cknn.Env.RoadWorld): every
	// /healthz answer states it (HeaderRoadWorld), and a travel block of
	// another world is refused.
	world uint64

	cache respCache
	// seen is the key of every cache miss, which a full stripe admits by.
	seen    SeenFilter
	flights flightGroup
	// computes counts cache-miss table computations (diagnostics and the
	// single-flight tests).
	computes atomic.Int64
}

// cacheVal is one cached Offering Table, encoded when it entered the cache
// (with Cached=true, the flag every hit carries): encode once, write many.
// The wire body is all an entry holds: a fleet shard is only ever asked for
// wire bodies. A JSON hit renders its body from the wire one (writeCached).
// An entry never changes once stored, so hits and single-flight followers
// hand its bytes out without copying. The followers of a leader whose table
// the cache declined are handed a cacheVal of hit bytes that was never
// stored.
type cacheVal struct {
	wireBody []byte
	expires  time.Time
	// slot is the entry's index in its stripe's queue.
	slot uint32
}

// respCacheStripes is the shard count of the response cache: enough to keep
// concurrent offering requests off each other's locks, small enough that
// the fixed array stays cheap.
const respCacheStripes = 16

// respCache is the server-side dynamic cache, mutex-striped so concurrent
// requests landing in different spatial cells never contend. Keys are
// hashed (FNV-1a over the key's fixed-width fields) onto a shard; each
// shard is an independently locked map.
//
// One rule keeps a stripe: it is a queue of one TTL with admission in front.
// Every put reclaims the expired entries at the head of the queue, a full
// stripe stores only a key it admits (admits), and makes room for it by
// dropping its oldest entry (evictLocked); get deletes an expired entry it
// touches.
type respCache struct {
	shards [respCacheStripes]respShard
	// maxPerShard bounds each shard's entry count.
	maxPerShard int
}

type respShard struct {
	mu sync.Mutex
	m  map[cacheKey]cacheVal

	// queue is the order entries expire and are evicted in: the key of every
	// put, oldest first, from head on. Nothing but put maintains it, so a
	// slot may name a key that has since been deleted, or cached again
	// further down: the live slot of an entry is the one at its
	// cacheVal.slot.
	queue []cacheKey
	head  int
}

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
	met.rescacheHits.Inc()
	return v, true
}

// admits reports whether a table computed for key may be cached. A stripe
// with room stores it; a full one — once its expired entries are reclaimed —
// only if the key was asked for before within its TTL (seen, by the server's
// SeenFilter), and makes room by eviction then. A key nobody asked for before
// is, under personalised weights, one nobody asks for again: the paper keeps
// a driver's own table in the vehicle's dynamic cache (§IV.C), and storing it
// here would cost an encode, a copy and the eviction of an entry somebody
// might read. A declined table is answered and dropped. This is the check
// before the encode; put applies it again under the lock it stores under,
// since another put may fill the stripe in between.
func (c *respCache) admits(key cacheKey, seen bool, now time.Time) bool {
	if seen {
		return true
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return c.admitsLocked(s, false, now)
}

// admitsLocked is admits under the stripe's lock, and counts a decline.
func (c *respCache) admitsLocked(s *respShard, seen bool, now time.Time) bool {
	if seen || len(s.m) < c.maxPerShard || s.reclaimLocked(now) > 0 {
		return true
	}
	met.rescacheDeclined.Inc()
	return false
}

// put caches resp under key, seen as admits reads it, and returns the entry
// it stored; when the stripe declines the key after all, it stores nothing
// and returns an entry that only holds the encoded bytes.
func (c *respCache) put(key cacheKey, seen bool, resp OfferingResponse, now, expires time.Time) cacheVal {
	wireBody := encodeHit(resp) // outside the shard lock

	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[cacheKey]cacheVal)
	}
	s.reclaimLocked(now)
	_, exists := s.m[key]
	if !exists && !c.admitsLocked(s, seen, now) {
		return cacheVal{wireBody: wireBody}
	}
	if !exists && len(s.m) >= c.maxPerShard {
		s.evictLocked()
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
	v := cacheVal{wireBody: wireBody, expires: expires, slot: uint32(len(s.queue))}
	s.m[key] = v
	s.queue = append(s.queue, key)
	if !exists {
		met.rescacheEntries.Inc()
	}
	return v
}

// queueLimit is the length at which a stripe's queue is rewritten as its live
// slots, at most maxPerShard of them: a quarter more, so the queue stays that
// short however keys come and go, for a few map operations a put.
func (c *respCache) queueLimit() int { return c.maxPerShard + c.maxPerShard/4 + 1 }

// encodeHit returns the wire body every hit on resp is answered with: resp
// with Cached=true, encoded into a pooled buffer and copied at its length.
// The encode counts on eis_encode_seconds_wire, as Respond's does.
func encodeHit(resp OfferingResponse) []byte {
	resp.Cached = true
	buf := wire.GetBuffer()
	start := time.Now()
	buf.B = wire.AppendOfferingResponse(buf.B, &resp)
	met.encodeWire.Since(start)
	body := bytes.Clone(buf.B)
	wire.PutBuffer(buf)
	return body
}

// evictLocked makes room in a full stripe whose expired head put has just
// reclaimed: its oldest live entry goes. Every entry gets the same TTL, so
// that is the one closest to expiry; a one-shot key that could push a hot
// cell out never gets this far, since a full stripe admits only keys asked
// for before (admits). For request times that do not run backwards, queue
// order is expiry order and the victim is the one a scan for the closest
// expiry chose (TestRespCacheEvictionMatchesScan); where they do, the
// queue's order stands, and get and the head reclaim what expires behind it.
func (s *respShard) evictLocked() {
	for ; s.head < len(s.queue); s.head++ {
		if _, live := s.live(s.head); live {
			delete(s.m, s.queue[s.head])
			s.head++
			met.rescacheEvictions.Inc()
			met.rescacheEntries.Dec()
			return
		}
	}
}

// reclaimLocked deletes the expired entries at the head of the queue and
// returns how many it deleted. The head only moves forward between
// compactions, so this costs O(1) amortised a put.
func (s *respShard) reclaimLocked(now time.Time) int {
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
	if expired > 0 {
		met.rescacheExpired.Add(uint64(expired))
		met.rescacheEntries.Add(-int64(expired))
	}
	return expired
}

// live returns the entry whose slot is queue[i], if that entry is still
// cached and has not been put again since.
func (s *respShard) live(i int) (cacheVal, bool) {
	v, ok := s.m[s.queue[i]]
	return v, ok && int(v.slot) == i
}

// compactLocked rewrites the queue as its live slots, in order.
func (s *respShard) compactLocked() {
	n := 0
	for i := s.head; i < len(s.queue); i++ {
		v, live := s.live(i)
		if !live {
			continue
		}
		k := s.queue[i]
		v.slot = uint32(n)
		s.m[k] = v
		s.queue[n] = k
		n++
	}
	s.queue, s.head = s.queue[:n], 0
}

// NewServer returns a server over the environment.
func NewServer(env *cknn.Env, opts ServerOptions) *Server {
	srv := &Server{
		env:  env,
		opts: opts.withDefaults(),
	}
	srv.world = env.RoadWorld()
	srv.cache.maxPerShard = cacheMaxEntries / respCacheStripes
	return srv
}

// withTimeout bounds ctx by RequestTimeout's rule: a non-positive timeout
// disables the bound. It is called only where a handler is about to wait
// or to compute for long — a single-flight follower, a trip before it routes
// — and not around every request: a response-cache hit returns in
// microseconds without reading its context, and a single-flight leader runs
// to completion whatever its context says, so a timer and a context for
// either cost more than they guard.
func withTimeout(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, timeout)
}

// Handler returns the HTTP routes of the EIS, the observability surface
// (HandleOps) included.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	f := &Feeds{env: s.env, clock: s.opts.Clock, writeError: s.writeError, m: met}
	mux.HandleFunc(APIVersion+"/chargers", Instrument(s.opts.Tracer, "eis.chargers", met.httpChargers, f.Chargers))
	mux.HandleFunc(APIVersion+"/weather", Instrument(s.opts.Tracer, "eis.weather", met.httpWeather, f.Weather))
	mux.HandleFunc(APIVersion+"/availability", Instrument(s.opts.Tracer, "eis.availability", met.httpAvailability, f.Availability))
	mux.HandleFunc(APIVersion+"/traffic", Instrument(s.opts.Tracer, "eis.traffic", met.httpTraffic, f.Traffic))
	mux.HandleFunc(APIVersion+"/offering", Instrument(s.opts.Tracer, "eis.offering", met.httpOffering, s.handleOffering))
	mux.HandleFunc(APIVersion+"/offering/trip", Instrument(s.opts.Tracer, "eis.offering.trip", met.httpTrip, s.handleTripOffering))
	HandleOps(mux, strconv.FormatUint(s.world, 16))
	return mux
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	if s.opts.Logger != nil {
		s.opts.Logger.Printf("eis: %d %s", code, msg)
	}
	WriteError(w, code, msg)
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
	// A travel block is read where it arrived: the buffer goes back once the
	// ranking that reads it has returned.
	var req OfferingRequest
	contentType := r.Header.Get("Content-Type")
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	err := ReadRequest(w, r, buf)
	if err == nil {
		err = DecodeOffering(contentType, buf.B, &req)
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if wire.IsWire(contentType) {
		met.reqWire.Inc()
	}
	o, err := ResolveOffering(&req, s.opts.Clock)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	key := offeringKey(&o)
	if v, ok := s.cache.get(key, o.Now); ok {
		writeCached(w, r, v)
		return
	}
	// Every miss is observed: a full stripe keeps a table only for a key
	// that was asked for before (respCache.admits).
	seen := s.seen.Observe(key.hash(), o.Now)

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
	// one computation; followers wait for the leader's cache entry (or their
	// own deadline) instead of stampeding the ranking engine, and are answered
	// as a hit is — from the hit bytes the leader encodes for them when the
	// cache declined its table. The leader answers its fresh table.
	rows := rowScratch.Get().(*[]OfferingEntry)
	defer putRows(rows)
	var fresh OfferingResponse
	v, shared, err := s.flights.do(r.Context(), s.opts.RequestTimeout, key, func() cacheVal {
		s.computes.Add(1)
		fresh = OfferingResponse{GeneratedAt: o.Now, Entries: s.rankOffering(&o, node, req.Travel, rows)}
		if !s.cache.admits(key, seen, o.Now) {
			return cacheVal{}
		}
		return s.cache.put(key, seen, fresh, o.Now, o.Now.Add(cacheTTL))
	}, func() []byte { return encodeHit(fresh) })
	switch {
	case err != nil:
		s.writeError(w, http.StatusServiceUnavailable, "offering computation did not finish: %v", err)
	case shared:
		writeCached(w, r, v)
	default:
		Respond(w, r, met, func(b []byte) ([]byte, error) { return wire.AppendOfferingResponseJSON(b, &fresh) },
			func(b []byte) []byte { return wire.AppendOfferingResponse(b, &fresh) })
	}
}

// writeCached answers an offering from a cache entry: a wire answer writes
// the stored bytes, a JSON answer decodes them into pooled rows and renders
// those with the one offering appender (wire.AppendOfferingResponseJSON)
// into a pooled buffer. The codec's JSON-equivalence contract — fuzzed in
// internal/wire, pinned end to end by TestChaosWireOfferingCacheParity —
// makes it what json.Encoder would have written for the table when it was
// cached (TestCachedJSONIsTheEagerEncoding).
func writeCached(w http.ResponseWriter, r *http.Request, v cacheVal) {
	if wire.Accepts(r.Header.Get("Accept")) {
		met.respWire.Inc()
		WriteBody(w, http.StatusOK, wire.ContentType, v.wireBody)
		return
	}
	rows := rowScratch.Get().(*[]OfferingEntry)
	defer putRows(rows)
	hit := OfferingResponse{Entries: *rows}
	if err := wire.DecodeOfferingResponse(v.wireBody, &hit); err != nil {
		WriteBody(w, http.StatusInternalServerError, ContentTypeJSON, errEncodeBody)
		return
	}
	if cap(hit.Entries) > cap(*rows) {
		*rows = hit.Entries[:0] // the scratch keeps what the decode grew
	}
	respondJSON(w, met, func(b []byte) ([]byte, error) { return wire.AppendOfferingResponseJSON(b, &hit) })
}

// rowScratch pools the rows a computed offering or trip is answered from;
// they go back once the answer is written (the cache keeps only bytes).
var rowScratch = sync.Pool{New: func() interface{} { return new([]OfferingEntry) }}

// maxPooledRows caps the rows a returned scratch keeps (about 130 KB), as the
// fleet gateway caps its trip storage.
const maxPooledRows = 1 << 10

func putRows(rows *[]OfferingEntry) {
	if cap(*rows) <= maxPooledRows {
		*rows = (*rows)[:0]
		rowScratch.Put(rows)
	}
}

// appendRows appends the wire form of a table's entries to rows, the one
// conversion of every endpoint that answers Offering Tables, so the wire
// contract (the Degraded tag included) cannot drift between them. It returns
// the rows it appended, or nil for an empty table: "entries":null.
func appendRows(rows *[]OfferingEntry, es []cknn.Entry) []OfferingEntry {
	if len(es) == 0 {
		return nil
	}
	start := len(*rows)
	for _, e := range es {
		*rows = append(*rows, OfferingEntry{
			ChargerID: e.Charger.ID, Lat: e.Charger.P.Lat, Lon: e.Charger.P.Lon, RateKW: e.Charger.Rate.KW(),
			SC: wire.ToWire(e.SC), L: wire.ToWire(e.Comp.L), A: wire.ToWire(e.Comp.A), D: wire.ToWire(e.Comp.D),
			ETA: e.Comp.ETA, Degraded: uint8(e.Comp.Degraded),
		})
	}
	return (*rows)[start:len(*rows):len(*rows)]
}

// rankOffering computes the table of one offering request and appends its
// rows to rows (appendRows): on the network search the request brought along
// (a fleet gateway's travel block) when it brought one of the server's road
// world that covers the ranking, else on a search of its own from node, the
// query point's node — which cknn.RankOnce snaps now, if a block that is then
// refused was to make that unnecessary. The table is the same either way.
// The ranking writes its k entries into pooled scratch, which the rows are
// copied out of at once.
func (s *Server) rankOffering(o *Offering, node roadnet.NodeID, block *wire.TravelBlock, rows *[]OfferingEntry) []OfferingEntry {
	ranked := rankScratch.Get().(*[]cknn.Entry)
	defer rankScratch.Put(ranked)
	var travel *cknn.Travel
	if block != nil && block.World == s.world {
		t := travelOf(block)
		travel = &t
	}
	table, used := cknn.RankOnce(s.env, cknn.EcoChargeOptions{RadiusM: o.RadiusM}, o.Query(node), travel, *ranked)
	switch {
	case used:
		met.travelUsed.Inc()
	case block != nil:
		met.travelRejected.Inc()
	}
	if n := cap(table.Entries); n > cap(*ranked) && n <= maxPooledRows {
		*ranked = table.Entries[:0]
	}
	return appendRows(rows, table.Entries)
}

// rankScratch pools the storage a shard's one-shot ranking writes its k
// entries into (cknn.RankOnce's rows), which rankOffering copies out of.
var rankScratch = sync.Pool{New: func() interface{} { return new([]cknn.Entry) }}

// travelOf is the network search a travel block carries, as a ranking reads
// it: in place, from the bytes of the request. A one-leg block returns to its
// anchor over the outbound leg, and has no return leg of its own.
func travelOf(b *wire.TravelBlock) cknn.Travel {
	t := cknn.Travel{Anchor: b.Anchor, Return: b.Return, ScaleLo: b.ScaleLo, ScaleHi: b.ScaleHi, Times: b}
	if !b.TwoLegs {
		t.Return = roadnet.Invalid
	}
	return t
}

// flightGroup collapses concurrent computations of the same cache key into
// one: the first caller becomes the leader and computes, followers block on
// the entry the leader hands them or their own deadline, whichever ends
// first. The leader always runs to completion so its work lands in the cache
// even when every waiter gave up; it reads no context and starts no timer. A
// leader that panics still ends its flight: its followers are answered
// errLeaderFailed at once, and the next caller of the key leads.
type flightGroup struct {
	mu sync.Mutex
	m  map[cacheKey]*flight
}

type flight struct {
	done chan struct{}
	val  cacheVal
	// joined says a follower waits, under flightGroup.mu until the leader
	// takes the flight out of the map.
	joined bool
	// failed says the leader has not returned; a flight that ends with it
	// set ended in a panic.
	failed bool
}

// do returns the cache entry of key, whether it was shared from another
// caller's computation, and a context error when the wait was abandoned. A
// leader runs lead, which returns the entry it cached or, when the cache
// declined the table, one without a body; share then encodes the hit bytes
// the followers are answered with, and only if one joined. A follower waits
// under ctx bounded by timeout (withTimeout).
func (g *flightGroup) do(ctx context.Context, timeout time.Duration, key cacheKey, lead func() cacheVal, share func() []byte) (cacheVal, bool, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[cacheKey]*flight)
	}
	if f, ok := g.m[key]; ok {
		f.joined = true
		g.mu.Unlock()
		met.flightCoalesced.Inc()
		ctx, cancel := withTimeout(ctx, timeout)
		defer cancel()
		select {
		case <-f.done:
			if f.failed {
				return cacheVal{}, true, errLeaderFailed
			}
			return f.val, true, nil
		case <-ctx.Done():
			return cacheVal{}, true, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{}), failed: true}
	g.m[key] = f
	g.mu.Unlock()
	met.flightLeads.Inc()

	// Deferred, so that a panic in lead ends the flight too.
	defer close(f.done)
	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		joined := f.joined
		g.mu.Unlock()
		if joined && !f.failed && f.val.wireBody == nil {
			f.val.wireBody = share()
		}
	}()
	v := lead()
	f.val, f.failed = v, false
	return v, false, nil
}

// errLeaderFailed is a follower's answer when the leader it waited on did
// not return (it panicked).
var errLeaderFailed = errors.New("the computation it waited on failed")
