package fleet

import (
	"fmt"
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
	// ShardTimeout is the deadline of one fan-out (or of one single-owner
	// exchange); a shard that has not answered by then is cancelled and
	// treated as dead for this request. 0 selects 2 s.
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

// maxShardResponseBytes bounds one shard response (a /chargers answer over a
// large shard's whole partition is the biggest payload the gateway handles).
const maxShardResponseBytes int64 = 32 << 20

// Gateway is the stateless fleet front: it owns the shard membership
// (addresses, breakers, probe verdicts), the merge logic and the world its
// shards serve, whose partition tells it each shard's chargers and whose
// road network it searches once for them all (travel.go). Everything it
// serves is reconstructed per request from shard answers and that world, so
// any gateway instance started on the same world can serve any request.
type Gateway struct {
	members []*member
	part    Partition
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
	g := &Gateway{part: Partition{N: len(shards)}, opts: opts, env: env, world: env.RoadWorld(), hop: newShardTransport().hop()}
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
// methods (chargers, weather, availability, traffic, offering,
// offering/trip) plus the observability endpoints and the fleet status
// view.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(eis.APIVersion+"/chargers", eis.Instrument(nil, "", met.httpChargers, g.handleChargers))
	mux.HandleFunc(eis.APIVersion+"/weather", eis.Instrument(nil, "", met.httpWeather, g.handleWeather))
	mux.HandleFunc(eis.APIVersion+"/availability", eis.Instrument(nil, "", met.httpAvail, g.handleAvailability))
	mux.HandleFunc(eis.APIVersion+"/traffic", eis.Instrument(nil, "", met.httpTraffic, g.handleTraffic))
	mux.HandleFunc(eis.APIVersion+"/offering", eis.Instrument(nil, "", met.httpOffering, g.handleOffering))
	mux.HandleFunc(eis.APIVersion+"/offering/trip", eis.Instrument(nil, "", met.httpTrip, g.handleTrip))
	mux.HandleFunc("/fleet/status", func(w http.ResponseWriter, _ *http.Request) {
		eis.WriteJSONStatus(w, http.StatusOK, g.Status())
	})
	eis.HandleOps(mux, "")
	return mux
}

// ---- chargers ----

func (g *Gateway) handleChargers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		g.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	// The shards' own parser, in front: a request they would refuse is
	// refused here, in their words, and the values select and synthesize.
	p, radius, err := eis.ChargersParams(r)
	if err != nil {
		g.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fo := g.getFanout()
	defer g.putFanout(fo)
	fo.setCall(call{ep: epChargers, rawQuery: r.URL.RawQuery})
	g.fanout(r.Context(), fo)
	live, bad, dead := splitResults(fo.results)
	if bad != nil {
		passthrough(w, bad)
		return
	}
	if live == 0 {
		g.writeError(w, http.StatusServiceUnavailable, "no shard could serve chargers")
		return
	}
	lists := make([][]charger.Charger, 0, len(g.members))
	for i := range fo.results {
		if !fo.results[i].ok() {
			continue
		}
		l, err := decodeChargerList(&fo.results[i])
		if err != nil {
			g.writeError(w, http.StatusBadGateway, "shard %d: decoding chargers: %v", i, err)
			return
		}
		lists = append(lists, l)
	}
	if len(dead) > 0 {
		var synth []charger.Charger
		for _, i := range dead {
			for _, c := range g.members[i].chargers.Within(p, radius) {
				synth = append(synth, *c)
			}
		}
		lists = append(lists, synth)
		markDegraded(w, dead, len(synth))
		g.logf("chargers served degraded: shards %v down", dead)
	}
	merged := mergeChargers(lists, p)
	eis.Respond(w, r, nil, func(b []byte) ([]byte, error) { return wire.AppendChargersJSON(b, merged) },
		func(b []byte) []byte { return wire.AppendChargers(b, merged) })
}

// decodeChargerList decodes one shard's binary charger payload, timing the
// decode share of the fan-out.
func decodeChargerList(res *shardResult) ([]charger.Charger, error) {
	start := time.Now()
	l, err := wire.DecodeChargers(res.body, nil)
	met.decodeWire.Since(start)
	return l, err
}

// ---- weather / availability (single-owner pass-through) ----

func (g *Gateway) handleWeather(w http.ResponseWriter, r *http.Request) {
	g.perCharger(w, r, epWeather, func(b []byte, c *charger.Charger, at time.Time) ([]byte, error) {
		// Honest fallback: the site cannot produce more than its nameplate
		// renewable capacity, and might produce nothing.
		return wire.AppendWeatherJSON(b, &eis.WeatherResponse{ChargerID: c.ID, At: at, ProductionKW: eis.IntervalJSON{Min: 0, Max: c.RESKW()}, Degraded: true})
	})
}

func (g *Gateway) handleAvailability(w http.ResponseWriter, r *http.Request) {
	g.perCharger(w, r, epAvailability, func(b []byte, c *charger.Charger, at time.Time) ([]byte, error) {
		return wire.AppendAvailabilityJSON(b, &eis.AvailabilityResponse{ChargerID: c.ID, At: at, Availability: ignoranceWire(), Degraded: true})
	})
}

// perCharger serves one of the per-charger estimate endpoints: pass-through
// from the owning shard — the rendezvous partition names it with no shared
// state — when it answers, and when it does not, the answer a shard over its
// partition of the gateway's world gives: a synthesized ignorance-bound
// estimate for a charger it owns, which synth appends as JSON, its 404 for
// one it does not. A charger parameter that is not an integer is answered
// here, with the 400 a shard would give: there is no owner to ask.
func (g *Gateway) perCharger(w http.ResponseWriter, r *http.Request, ep endpoint, synth func([]byte, *charger.Charger, time.Time) ([]byte, error)) {
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
	// The shard's JSON passes through as it came.
	res := g.single(r.Context(), m, &call{ep: ep, rawQuery: r.URL.RawQuery})
	defer res.release()
	if res.err == nil {
		passthrough(w, &res)
		return
	}
	c, at, code, err := eis.ChargerAt(r, m.chargers, g.opts.Clock())
	if err != nil {
		g.writeError(w, code, "%v", err)
		return
	}
	markDegraded(w, []int{m.index}, 1)
	g.logf("%s for charger %d served degraded: shard %d down", strings.TrimPrefix(endpointPaths[ep], eis.APIVersion+"/"), c.ID, m.index)
	eis.Respond(w, r, nil, func(b []byte) ([]byte, error) { return synth(b, c, at) }, nil)
}

// ---- traffic (any-shard pass-through) ----

// handleTraffic serves the fleet-global congestion bands from any shard
// (every shard holds the same traffic model), preferring healthy members. A
// t that is not a time is answered here, with the 400 a shard would give.
func (g *Gateway) handleTraffic(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		g.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if _, err := eis.TimeParam(r, "t", time.Time{}); err != nil {
		g.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	order := make([]*member, len(g.members))
	copy(order, g.members)
	sort.SliceStable(order, func(i, j int) bool {
		return trafficRank(order[i]) < trafficRank(order[j])
	})
	c := call{ep: epTraffic, rawQuery: r.URL.RawQuery}
	for _, m := range order {
		res := g.single(r.Context(), m, &c)
		if res.err == nil {
			passthrough(w, &res)
			res.release()
			return
		}
	}
	g.writeError(w, http.StatusServiceUnavailable, "no shard could serve traffic")
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
	for i := range fo.results {
		res := &fo.results[i]
		if !res.ok() {
			continue
		}
		start := time.Now()
		err = wire.DecodeOfferingResponse(res.body, &fo.tables[i])
		met.decodeWire.Since(start)
		if err == nil {
			err = checkIntervals(fo.tables[i].Entries)
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
			err = checkIntervals(resp.Segments[j].Entries)
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
