package fleet

import (
	"bytes"
	"encoding/json"
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
	// Transport performs every shard exchange: fan-outs, probes and
	// inventory pulls. It must honour the request context, as net/http's
	// does — that is how a deadline reaches an exchange. Nil selects a clone
	// of http.DefaultTransport with a write buffer sized for a trip's body.
	Transport http.RoundTripper
	// Clock is overridable for tests; nil selects time.Now.
	Clock func() time.Time
	// Logger for degraded merges and shard errors; nil silences logging.
	Logger *log.Logger
	// Env is the road world the shards search — the frozen graph and the
	// traffic model, built from the same dataset and seed as theirs (its
	// chargers and other models are not read). With it the gateway runs the
	// one network search of a cache-miss ranking itself and hands every
	// shard its travel times, where each shard would otherwise run the same
	// search (travel.go), and plans a trip and runs its segments' searches
	// once where each shard would run them all; for a one-shot ranking it
	// takes an undirected graph. Nil keeps the gateway graph-free.
	Env *cknn.Env
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

// shardWriteBuffer is the write buffer of a gateway→shard connection on the
// gateway's own transport: a benchmark trip's request body with its travel
// blocks is 15 KB a shard on average and 27 KB at the most.
const shardWriteBuffer = 32 << 10

// maxShardResponseBytes bounds one shard response (the inventory of a large
// shard is the biggest payload the gateway handles).
const maxShardResponseBytes int64 = 32 << 20

// Gateway is the stateless fleet front: it owns the shard membership
// (addresses, breakers, probe verdicts, inventory caches), the merge logic
// and, when given one, a copy of the road world its shards search, to run
// their common network search once (travel.go). Everything it serves is
// reconstructed per request from shard answers, and everything it holds can
// be rebuilt or re-learned from the shards, so any gateway instance can serve
// any request.
type Gateway struct {
	members []*member
	part    Partition
	opts    Options

	// env is Options.Env, nil when the gateway was given none; world is its
	// RoadWorld, which a shard must state to be searched for.
	env   *cknn.Env
	world uint64

	// transport is Options.Transport; every shard exchange runs on it.
	transport http.RoundTripper
	// headers are the outbound header sets of the fan-out endpoints, built
	// once and shared read-only by every request (Gateway.header).
	headers []headerSet
	// fanouts pools the per-request fan-out state.
	fanouts sync.Pool
}

// NewGateway returns a gateway over the shards, in shard-index order (the
// order must match the partition the shard environments were built with).
func NewGateway(shards []Shard, opts Options) (*Gateway, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("fleet: gateway needs at least one shard")
	}
	opts = opts.withDefaults()
	g := &Gateway{part: Partition{N: len(shards)}, opts: opts, transport: opts.Transport}
	if g.transport == nil {
		g.transport = http.DefaultTransport
		if stock, ok := http.DefaultTransport.(*http.Transport); ok {
			// A request body that does not fit the connection's write buffer is
			// copied through a buffer allocated for it, per request; a trip's
			// travel blocks are some 20 KB a shard.
			own := stock.Clone()
			own.WriteBufferSize = shardWriteBuffer
			g.transport = own
		}
	}
	if opts.Env != nil {
		g.env, g.world = opts.Env, opts.Env.RoadWorld()
	}
	// Every shard exchange asks for the binary format, whatever the client
	// asked the gateway for.
	for _, contentType := range []string{"", eis.ContentTypeJSON, wire.ContentType} {
		g.headers = append(g.headers, headerSet{contentType, wire.ContentType, newHeader(contentType, wire.ContentType)})
	}
	for i, s := range shards {
		m, err := newMember(i, s, opts)
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
	eis.WriteJSONStatus(w, code, eis.ErrorResponse{Error: msg})
}

// writeUnavailable is the all-shards-dead answer: an honest 503 with a
// Retry-After hint, never a fabricated table.
func (g *Gateway) writeUnavailable(w http.ResponseWriter, what string) {
	w.Header().Set("Retry-After", "1")
	g.writeError(w, http.StatusServiceUnavailable, "no shard could serve %s", what)
}

// respond writes a merged result to the client in its negotiated format:
// enc appends the binary message for payloads the wire codec covers, JSON
// stays the default. Degraded synth responses and errors are always JSON.
func (g *Gateway) respond(w http.ResponseWriter, r *http.Request, v interface{}, enc func([]byte) []byte) {
	if enc != nil && wire.Accepts(r.Header.Get("Accept")) {
		buf := wire.GetBuffer()
		buf.B = enc(buf.B)
		eis.WriteBody(w, http.StatusOK, wire.ContentType, buf.B)
		wire.PutBuffer(buf)
		return
	}
	eis.WriteJSONStatus(w, http.StatusOK, v)
}

// passthrough relays a shard's terminal response verbatim, so error bodies
// (and their statuses) stay byte-identical to the single-EIS deployment.
func passthrough(w http.ResponseWriter, res *shardResult) {
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
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
		eis.WriteJSON(w, g.Status())
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
	fo := g.getFanout()
	defer g.putFanout(fo)
	fo.setCall(call{method: http.MethodGet, ep: epChargers, rawQuery: r.URL.RawQuery, header: g.header("", wire.ContentType)})
	g.fanout(r.Context(), fo)
	live, bad, dead := splitResults(fo.results)
	if bad != nil {
		passthrough(w, bad)
		return
	}
	if live == 0 {
		g.writeUnavailable(w, "chargers")
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
	// The shards' own parser: when it fails they have already produced the
	// canonical 400, so the values only sort and synthesize.
	p, radius, err := eis.ChargersParams(r)
	synthesized := 0
	if err == nil {
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
	if res.isWire() {
		l, err := wire.DecodeChargers(res.body, nil)
		met.decodeWire.Since(start)
		return l, err
	}
	var l []charger.Charger
	err := json.Unmarshal(res.body, &l)
	met.decodeJSON.Since(start)
	return l, err
}

// ---- weather / availability (single-owner pass-through) ----

func (g *Gateway) handleWeather(w http.ResponseWriter, r *http.Request) {
	g.perCharger(w, r, epWeather, func(c charger.Charger, at time.Time) interface{} {
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
	g.perCharger(w, r, epAvailability, func(c charger.Charger, at time.Time) interface{} {
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
func (g *Gateway) perCharger(w http.ResponseWriter, r *http.Request, ep endpoint, synth func(charger.Charger, time.Time) interface{}) {
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
	what := strings.TrimPrefix(endpointPaths[ep], eis.APIVersion+"/")
	// Forward the client's own Accept header: when the client negotiated
	// binary the shard's encoded bytes pass through with no gateway
	// decode/re-encode at all.
	res := g.single(r.Context(), m, &call{method: http.MethodGet, ep: ep, rawQuery: r.URL.RawQuery, header: g.header("", r.Header.Get("Accept"))})
	defer res.release()
	if res.err == nil {
		passthrough(w, &res)
		return
	}
	for _, c := range m.chargers() {
		if c.ID == id {
			at, terr := eis.TimeParam(r, "t", g.opts.Clock())
			if terr != nil {
				g.writeError(w, http.StatusBadRequest, "%v", terr)
				return
			}
			markDegraded(w, []int{m.index}, 1)
			g.logf("%s for charger %d served degraded: shard %d down", what, c.ID, m.index)
			eis.WriteJSON(w, synth(c, at))
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
	c := call{method: http.MethodGet, ep: epTraffic, rawQuery: r.URL.RawQuery, header: g.header("", r.Header.Get("Accept"))}
	for _, m := range order {
		res := g.single(r.Context(), m, &c)
		if res.err == nil {
			passthrough(w, &res)
			res.release()
			return
		}
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

// maxRequestBytes bounds a client's POST body, like the shards do.
const maxRequestBytes = 1 << 20

// readBody reads a client's POST body through a pooled buffer. The returned
// bytes are a right-sized copy the garbage collector owns, not the pooled
// storage: every attempt of the fan-out sends them, and a transport may
// still be reading a cancelled attempt's body after the handler returned.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	if err := buf.ReadLimit(http.MaxBytesReader(w, r.Body, maxRequestBytes), maxRequestBytes); err != nil {
		return nil, err
	}
	return append(make([]byte, 0, len(buf.B)), buf.B...), nil
}

func (g *Gateway) handleOffering(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		g.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		g.writeError(w, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	// The body is forwarded with the client's own Content-Type: a binary
	// Mode 2 request travels to the shards verbatim, no transcoding.
	reqCT := r.Header.Get("Content-Type")
	if reqCT == "" {
		reqCT = eis.ContentTypeJSON
	}
	fo := g.getFanout()
	defer g.putFanout(fo)
	// The request is decoded into the pooled state: encoding/json would
	// move a local one to the heap on both planes. A body that does not
	// decode travels on all the same, and the shards answer the canonical 400.
	fo.req = eis.OfferingRequest{}
	reqParsed := false
	if wire.IsWire(reqCT) {
		reqParsed = wire.DecodeOfferingRequest(body, &fo.req) == nil
	} else {
		reqParsed = json.Unmarshal(body, &fo.req) == nil
	}
	if fo.req.Travel != nil {
		// A shard builds its ranking on a travel block without a search of
		// its own to hold it against, so only the gateway may write one.
		g.writeError(w, http.StatusBadRequest, "decoding request: a travel block is the gateway's to send, not a client's")
		return
	}
	// The shards' own defaulting, so the gateway searches, selects and
	// synthesizes with exactly the parameters they rank under.
	var o eis.Offering
	resolved := false
	if reqParsed {
		o, err = eis.ResolveOffering(&fo.req, g.opts.Clock)
		resolved = err == nil
	}
	fo.setCall(call{method: http.MethodPost, ep: epOffering, body: body, header: g.header(reqCT, wire.ContentType)})
	// A one-shot ranking returns to its anchor: one search serves it where
	// the return leg is the outbound one, on an undirected graph.
	if g.env != nil && resolved && g.env.Graph.Symmetric() {
		g.supplyTravel(fo, &o)
	}
	g.fanout(r.Context(), fo)
	live, bad, dead := splitResults(fo.results)
	if bad != nil {
		passthrough(w, bad)
		return
	}
	if live == 0 {
		g.writeUnavailable(w, "offering")
		return
	}
	for i := range fo.results {
		res := &fo.results[i]
		if !res.ok() {
			continue
		}
		start := time.Now()
		if res.isWire() {
			err = wire.DecodeOfferingResponse(res.body, &fo.tables[i])
			met.decodeWire.Since(start)
		} else {
			// A fresh table: encoding/json leaves fields a body omits as
			// they were.
			fo.tables[i] = eis.OfferingResponse{}
			err = json.Unmarshal(res.body, &fo.tables[i])
			met.decodeJSON.Since(start)
		}
		if err != nil {
			g.writeError(w, http.StatusBadGateway, "shard %d: decoding offering: %v", i, err)
			return
		}
		if fo.spans[i].supplied && fo.tables[i].Cached {
			met.travelWasted.Inc()
		}
	}
	var synth []eis.OfferingEntry
	k := 3
	if resolved {
		k = o.K
		for _, i := range dead {
			synth = append(synth, synthWithin(g.members[i].chargers(), o.P, o.RadiusM, o.Weights.Normalized())...)
		}
	}
	if len(dead) > 0 {
		markDegraded(w, dead, len(synth))
		g.logf("offering served degraded: shards %v down, %d entries widened", dead, len(synth))
	}
	fo.mergeOffering(synth, k)
	g.respond(w, r, &fo.merged, func(b []byte) []byte { return wire.AppendOfferingResponse(b, &fo.merged) })
}

// ---- offering/trip ----

func (g *Gateway) handleTrip(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		g.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		g.writeError(w, http.StatusBadRequest, "reading request: %v", err)
		return
	}
	fo := g.getFanout()
	defer g.putFanout(fo)
	// Decoded and resolved in front, the way a shard does both: a request the
	// gateway cannot resolve is one every shard rejects, in these words, and
	// is answered without asking them.
	fo.trip = eis.TripOfferingRequest{}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&fo.trip); err != nil {
		g.writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	t, err := eis.ResolveTripOffering(&fo.trip, g.opts.Clock)
	if err != nil {
		g.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The client's JSON goes on as it came, but to the shards the gateway
	// plans and searches the trip for. The answers are asked for as every
	// shard-side table is — binary — and read by their Content-Type; the
	// client's is negotiated by its own Accept, as a single EIS does.
	fo.setCall(call{method: http.MethodPost, ep: epTrip, body: body, header: g.header(eis.ContentTypeJSON, wire.ContentType)})
	supplied := g.env != nil && g.supplyTrip(r.Context(), fo, &t)
	g.fanout(r.Context(), fo)
	live, bad, dead := splitResults(fo.results)
	if bad != nil {
		passthrough(w, bad)
		return
	}
	if live == 0 {
		g.writeUnavailable(w, "offering/trip")
		return
	}
	for i := range fo.results {
		res := &fo.results[i]
		if !res.ok() {
			continue
		}
		resp := &fo.trips[i]
		start := time.Now()
		if res.isWire() {
			err = wire.DecodeTripResponse(res.body, resp)
			met.decodeWire.Since(start)
		} else {
			// A fresh answer: encoding/json leaves fields a body omits as
			// they were.
			*resp = eis.TripOfferingResponse{}
			err = json.Unmarshal(res.body, resp)
			met.decodeJSON.Since(start)
		}
		if err != nil {
			g.writeError(w, http.StatusBadGateway, "shard %d: decoding trip offering: %v", i, err)
			return
		}
		if supplied && fo.terms[i] != nil {
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
	g.respond(w, r, &fo.tripMerged, func(b []byte) []byte { return wire.AppendTripResponse(b, &fo.tripMerged) })
}
