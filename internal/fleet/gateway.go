package fleet

import (
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ecocharge/internal/cknn"
	"ecocharge/internal/eis"
	"ecocharge/internal/geo"
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
	// ShardTimeout is the deadline of one fan-out; a shard that has not
	// answered by then is cancelled and treated as dead for this request. 0
	// selects 2 s.
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
	// trial). Zero values select eis.NewBreaker's defaults.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Clock is overridable for tests; nil selects time.Now.
	Clock func() time.Time
	// Logger for degraded merges and shard errors; nil silences logging.
	Logger *log.Logger
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
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// maxShardResponseBytes bounds one shard response, an Offering Table or a
// trip's tables.
const maxShardResponseBytes int64 = 32 << 20

// Gateway is the stateless fleet front: it owns the shard membership
// (addresses, breakers, probe verdicts), the merge logic and the world its
// shards serve. That world answers the data feeds, its partition names each
// shard's chargers, and its road network is searched once for them all
// (travel.go). Everything the gateway serves is computed per request from
// that world and the shards' answers, so any gateway instance started on the
// same world can serve any request.
type Gateway struct {
	members []*member
	opts    Options

	// env is the world NewGateway was given; world is its RoadWorld, which a
	// shard must state to be searched for.
	env   *cknn.Env
	world uint64

	// hop runs every shard exchange (transport.go).
	hop hop
	// fanouts pools the per-request fan-out state.
	fanouts sync.Pool
}

// NewGateway returns a gateway over the shards, in shard-index order (the
// order must match the partition the shard environments were built with),
// and env, the world the shards were built from: the same graph, traffic
// model and chargers, from the same dataset and seed. Each member's chargers
// are its ShardEnv partition of env. With env's road world the gateway runs
// the one network search of a cache-miss ranking itself and hands every
// shard its travel times, where each shard would otherwise run the same
// search, and plans a trip and runs its segments' searches once where each
// shard would run them all; for a one-shot ranking it takes an undirected
// graph.
func NewGateway(shards []Shard, env *cknn.Env, opts Options) (*Gateway, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("fleet: gateway needs at least one shard")
	}
	if env == nil {
		return nil, fmt.Errorf("fleet: gateway needs the world its shards serve")
	}
	opts = opts.withDefaults()
	g := &Gateway{opts: opts, env: env, world: env.RoadWorld(), hop: newShardTransport().hop()}
	for i, s := range shards {
		own, err := ShardEnv(env, i, len(shards))
		if err != nil {
			return nil, err
		}
		m, err := newMember(i, s, own.Chargers, opts)
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

func (g *Gateway) writeError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	g.logf("%d %s", code, msg)
	eis.WriteError(w, code, msg)
}

// passthrough relays a shard's terminal response verbatim, so error bodies
// (and their statuses) stay byte-identical to the single-EIS deployment.
func passthrough(w http.ResponseWriter, res *shardResult) {
	if ra := res.header.retryAfter; ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	eis.WriteBody(w, res.status, res.header.contentType, res.body)
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

// Handler returns the gateway's HTTP surface: the six consolidated EIS
// methods plus the observability endpoints and the fleet status view. The
// four data feeds (chargers, weather, availability, traffic) are the EIS's
// own handlers over the gateway's world, which asks no shard; only the two
// rankings (offering, offering/trip) fan out.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	f := eis.NewFeeds(g.env, g.opts.Clock, g.writeError)
	mux.HandleFunc(eis.APIVersion+"/chargers", eis.Instrument(nil, "", met.httpChargers, f.Chargers))
	mux.HandleFunc(eis.APIVersion+"/weather", eis.Instrument(nil, "", met.httpWeather, f.Weather))
	mux.HandleFunc(eis.APIVersion+"/availability", eis.Instrument(nil, "", met.httpAvail, f.Availability))
	mux.HandleFunc(eis.APIVersion+"/traffic", eis.Instrument(nil, "", met.httpTraffic, f.Traffic))
	mux.HandleFunc(eis.APIVersion+"/offering", eis.Instrument(nil, "", met.httpOffering, g.handleOffering))
	mux.HandleFunc(eis.APIVersion+"/offering/trip", eis.Instrument(nil, "", met.httpTrip, g.handleTrip))
	mux.HandleFunc("/fleet/status", func(w http.ResponseWriter, _ *http.Request) {
		eis.WriteJSONStatus(w, http.StatusOK, g.Status())
	})
	eis.HandleOps(mux, "")
	return mux
}

// ---- offering ----

// readRequest reads a client's POST body and decodes it with the shards' own
// parser (eis.DecodeOffering, eis.DecodeTrip), answering the 400 a shard
// would when it cannot; the body goes back to the pool after the decode.
func (g *Gateway) readRequest(w http.ResponseWriter, r *http.Request, decode func(contentType string, body []byte) error) bool {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	err := eis.ReadRequest(w, r, buf)
	if err == nil {
		err = decode(r.Header.Get("Content-Type"), buf.B)
	}
	if err != nil {
		g.writeError(w, http.StatusBadRequest, "decoding request: %v", err)
	}
	return err == nil
}

// errGatewaysToSend refuses what only a gateway may write into a request: a
// shard builds on a travel block or a route without a search of its own to
// hold it against.
const errGatewaysToSend = "a %s is the gateway's to send, not a client's"

func (g *Gateway) handleOffering(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		g.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	fo := g.getFanout()
	defer g.putFanout(fo)
	// Decoded into the pooled state and resolved in front, the way a shard
	// does both: a request a shard would refuse is refused here, in its
	// words, and no shard is asked. The shards then rank exactly the
	// parameters the gateway searches, selects and synthesizes with.
	// A client's travel block is refused, and let go before the bytes it
	// reads go back to the pool.
	if !g.readRequest(w, r, func(ct string, body []byte) error {
		if err := eis.DecodeOffering(ct, body, &fo.req); err != nil || fo.req.Travel == nil {
			return err
		}
		fo.req.Travel = nil
		return fmt.Errorf(errGatewaysToSend, "travel block")
	}) {
		return
	}
	o, err := eis.ResolveOffering(&fo.req, g.opts.Clock)
	if err != nil {
		g.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Every shard gets the binary form, which it decodes without
	// encoding/json: the same fields, the same ranking, the same answer. It
	// carries the times the gateway resolved, so that no shard ranks at its
	// own clock's.
	fo.req.Now, fo.req.ETA = o.Now, o.ETA
	fo.body = wire.AppendOfferingRequest(fo.body[:0], &fo.req)
	fo.setCall(call{ep: epOffering, body: fo.body})
	// A one-shot ranking returns to its anchor: one search serves it where
	// the return leg is the outbound one, on an undirected graph.
	supplied := g.env.Graph.Symmetric() && g.supplyTravel(fo, &o)
	g.fanout(r.Context(), fo)
	live, bad, dead := splitResults(fo.results)
	if bad != nil {
		passthrough(w, bad)
		return
	}
	if live == 0 {
		g.writeError(w, http.StatusServiceUnavailable, "no shard could serve offering")
		return
	}
	part := Partition{N: len(g.members)}
	for i := range fo.results {
		res := &fo.results[i]
		if !res.ok() {
			continue
		}
		start := time.Now()
		err = wire.DecodeOfferingResponse(res.body, &fo.tables[i])
		met.decodeWire.Since(start)
		if err == nil {
			err = checkEntries(fo.tables[i].Entries, part, i)
		}
		if err != nil {
			g.writeError(w, http.StatusBadGateway, "shard %d: decoding offering: %v", i, err)
			return
		}
		if supplied && fo.spans[i].supplied && fo.tables[i].Cached {
			met.travelWasted.Inc()
		}
	}
	var synth []eis.OfferingEntry
	for _, i := range dead {
		synth = synthWithin(synth, g.members[i].chargers, o.P, o.RadiusM, o.Weights.Normalized())
	}
	if len(dead) > 0 {
		markDegraded(w, dead, len(synth))
		g.logf("offering served degraded: shards %v down, %d entries widened", dead, len(synth))
	}
	fo.mergeOffering(synth, o.K)
	eis.Respond(w, r, nil, func(b []byte) ([]byte, error) { return wire.AppendOfferingResponseJSON(b, &fo.merged) },
		func(b []byte) []byte { return wire.AppendOfferingResponse(b, &fo.merged) })
}

// ---- offering/trip ----

func (g *Gateway) handleTrip(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		g.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	fo := g.getFanout()
	defer g.putFanout(fo)
	// Decoded and resolved in front, like an offering.
	if !g.readRequest(w, r, func(ct string, body []byte) error {
		if err := eis.DecodeTrip(ct, body, &fo.trip); err != nil || fo.trip.Route == nil && fo.trip.Travel == nil {
			return err
		}
		fo.trip.Route, fo.trip.Travel = nil, nil
		return fmt.Errorf(errGatewaysToSend, "route or a travel block")
	}) {
		return
	}
	t, err := eis.ResolveTripOffering(&fo.trip, g.opts.Clock)
	if err != nil {
		g.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Every shard gets the request as the client sent it, in the binary
	// form and with the departure the gateway resolved, except those the
	// gateway plans and searches the trip for: they get it with the route and
	// their blocks. The client's answer is negotiated by its own Accept, as a
	// single EIS does.
	fo.trip.Depart = t.Depart
	fo.body = wire.AppendTripRequest(fo.body[:0], &fo.trip)
	fo.setCall(call{ep: epTrip, body: fo.body})
	supplied := g.supplyTrip(r.Context(), fo, &t)
	g.fanout(r.Context(), fo)
	live, bad, dead := splitResults(fo.results)
	if bad != nil {
		passthrough(w, bad)
		return
	}
	if live == 0 {
		g.writeError(w, http.StatusServiceUnavailable, "no shard could serve offering/trip")
		return
	}
	part := Partition{N: len(g.members)}
	for i := range fo.results {
		res := &fo.results[i]
		if !res.ok() {
			continue
		}
		resp := &fo.trips[i]
		start := time.Now()
		err = wire.DecodeTripResponse(res.body, resp)
		met.decodeWire.Since(start)
		for j := 0; err == nil && j < len(resp.Segments); j++ {
			err = checkEntries(resp.Segments[j].Entries, part, i)
		}
		if err != nil {
			g.writeError(w, http.StatusBadGateway, "shard %d: decoding trip offering: %v", i, err)
			return
		}
		if supplied && fo.spans[i].supplied {
			for j := range fo.blocks {
				if seg := fo.blocks[j].Segment; seg < len(resp.Segments) && resp.Segments[seg].Adapted {
					met.travelWasted.Inc()
				}
			}
		}
	}
	var synthAt func(geo.Point) []eis.OfferingEntry
	if len(dead) > 0 {
		radius, weights := t.RadiusM, t.Weights.Normalized()
		synthAt = func(anchor geo.Point) []eis.OfferingEntry {
			var out []eis.OfferingEntry
			for _, i := range dead {
				out = synthWithin(out, g.members[i].chargers, anchor, radius, weights)
			}
			return out
		}
	}
	if err := fo.mergeTrips(synthAt, t.K); err != nil {
		g.writeError(w, http.StatusBadGateway, "%v", err)
		return
	}
	if len(dead) > 0 {
		synthesized := 0
		for _, seg := range fo.tripMerged.Segments {
			for i := range seg.Entries {
				if shardDegraded(&seg.Entries[i]) {
					synthesized++
				}
			}
		}
		markDegraded(w, dead, synthesized)
		g.logf("trip offering served degraded: shards %v down", dead)
	}
	eis.Respond(w, r, nil, func(b []byte) ([]byte, error) { return wire.AppendTripResponseJSON(b, &fo.tripMerged) },
		func(b []byte) []byte { return wire.AppendTripResponse(b, &fo.tripMerged) })
}
