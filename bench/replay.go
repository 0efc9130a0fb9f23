package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/eis"
	"ecocharge/internal/fleet"
	"ecocharge/internal/geo"
	"ecocharge/internal/load"
	"ecocharge/internal/obs"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/trajectory"
	"ecocharge/internal/wire"
)

// traced is one sampled request on its way down the stack.
type traced struct {
	trace   string
	req     *request
	gateway int // span ID of fleet.gateway
	// computes is how many shards ranked for the request: all of them for a
	// trip or a one-shot key, none for a cached cell, and one or two for a
	// cell that some shard's cache had evicted.
	computes int
	merged   exchange
	handlers []span     // shard handler spans of the gateway request
	shard    []exchange // the same body sent straight to each shard
}

// slowest is the shard handler span the gateway waited for.
func (t *traced) slowest() span {
	s := t.handlers[0]
	for _, h := range t.handlers[1:] {
		if h.End > s.End {
			s = h
		}
	}
	return s
}

// tracedReplay follows the sample requests down the stack, one at a time.
// Pass A sends each through the gateway and records the gateway span and,
// through the handler tap, the three shard handler spans of that very
// request. Pass B sends the same body straight to each shard: the exchange
// minus its own handler span is one loopback hop. Pass C calls the layers
// below the handler again with the same input — ranking, candidate
// retrieval, expansions, forecasts, routing, codecs — as replayed children
// of the handler that finished last. The program's counters are read over
// pass A alone, a fixed request sequence, so per-request counts repeat
// exactly. End-to-end metrics are never taken from here.
func tracedReplay(fx *fixture, rec *recorder, sample []*request, m metricSet) ([]stageRow, error) {
	leads := obs.Default().Counter("eis_singleflight_leads_total")
	ts := make([]*traced, len(sample))
	gateways := make(map[int]*traced) // by gateway span ID

	before := obs.Default().Snapshot()
	for i, r := range sample {
		t := &traced{trace: fmt.Sprintf("%s/%d", fx.w.Name, i), req: r, gateway: rec.reserve()}
		ts[i] = t
		root := rec.reserve()
		leads0 := leads.Value()
		rec.cur.Store(&traceCtx{trace: t.trace, name: "eis.handler", parent: t.gateway})
		start := time.Now()
		t.merged = fx.send(r)
		end := time.Now()
		rec.handlers.Wait()
		rec.cur.Store(nil)
		if t.merged.outcome != load.OutcomeValid {
			return nil, fmt.Errorf("traced request %s: %s: %v", t.trace, t.merged.outcome, t.merged.err)
		}
		if t.computes = int(leads.Value() - leads0); fx.w.trip {
			t.computes = shards
		}
		rec.put(root, t.trace, "load.request", 0, -1, start, end, false)
		rec.put(t.gateway, t.trace, "fleet.gateway", root, -1, t.merged.sent, t.merged.done, false)
	}
	if err := sampleCounters(m, countersBetween(before, obs.Default().Snapshot()), float64(len(sample))); err != nil {
		return nil, err
	}
	for _, t := range ts {
		t.handlers = rec.childrenOf(t.gateway)
		gateways[t.gateway] = t
	}

	var hops, skews, shardHTTP, selfMiss, clientUS []float64
	for _, t := range ts {
		if len(t.handlers) != shards {
			return nil, fmt.Errorf("traced request %s reached %d shard handlers, want %d", t.trace, len(t.handlers), shards)
		}
		// Pass B. The gateway asks its shards for wire bodies where the
		// codec covers the payload, whatever the client negotiated.
		direct := *t.req
		if !fx.w.trip {
			direct.accept = wire.ContentType
		}
		slow := t.slowest()
		var slowHop time.Duration
		for j, url := range fx.fleet.ShardURLs {
			id := rec.reserve()
			rec.cur.Store(&traceCtx{trace: t.trace, name: "eis.handler.direct", parent: id})
			ex := fx.sendTo(url, &direct)
			rec.handlers.Wait()
			rec.cur.Store(nil)
			if ex.err != nil || ex.status != 200 {
				return nil, fmt.Errorf("traced request %s: shard %d answered %d: %v", t.trace, j, ex.status, ex.err)
			}
			rec.put(id, t.trace, "eis.http", 0, j, ex.sent, ex.done, true)
			t.shard = append(t.shard, ex)
			hop := ex.done.Sub(ex.sent)
			for _, h := range rec.childrenOf(id) {
				hop -= h.dur()
			}
			hops = append(hops, micros(hop))
			if j == slow.Shard {
				slowHop = hop
			}
		}
		rec.derived(t.trace, "eis.hop", t.gateway, slowHop)

		var ends []float64
		for _, h := range t.handlers {
			ends = append(ends, float64(h.End))
		}
		skews = append(skews, (float64(slow.End)-median(ends))/1e3)
		shardHTTP = append(shardHTTP, micros(slow.dur()+slowHop))
	}

	// Pass C.
	envs := make([]*cknn.Env, shards)
	for j := range envs {
		var err error
		if envs[j], err = fleet.ShardEnv(fx.scen.Env, j, shards); err != nil {
			return nil, err
		}
	}
	rp := &replayer{rec: rec, workers: runtime.GOMAXPROCS(0), samples: make(map[string][]float64)}
	for _, t := range ts {
		slow := t.slowest()
		env := envs[slow.Shard]
		switch {
		case fx.w.trip:
			if err := rp.trip(t, env, slow); err != nil {
				return nil, err
			}
		case t.computes > 0:
			rankUS, err := rp.offering(t, env, slow)
			if err != nil {
				return nil, err
			}
			selfMiss = append(selfMiss, max(0, micros(slow.dur())-rankUS))
		}
		if err := rp.codecs(t, fx.w); err != nil {
			return nil, err
		}
	}

	spans := rec.snapshot()
	self := selfTimes(spans)
	byName := make(map[string][]float64)
	selfByName := make(map[string][]float64)
	var hit, miss []float64
	roots := make(map[int]span)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], micros(s.dur()))
		selfByName[s.Name] = append(selfByName[s.Name], micros(self[s.ID]))
		switch s.Name {
		case "load.request":
			roots[s.ID] = s
		case "eis.handler":
			// A request only some shards ranked says nothing about which of
			// its handlers hit: it counts on neither side.
			switch gateways[s.Parent].computes {
			case shards:
				miss = append(miss, micros(s.dur()))
			case 0:
				hit = append(hit, micros(s.dur()))
			}
		case "eis.handler.direct":
			// Pass B re-asks a key pass A cached; a trip is never cached.
			if fx.w.trip {
				miss = append(miss, micros(s.dur()))
			} else {
				hit = append(hit, micros(s.dur()))
			}
		}
	}
	// The gateway's own time, body codecs included: what is left of its
	// span once the shard handlers and the hop are taken out.
	fleetSelf := make(map[int]float64)
	for _, s := range spans {
		switch {
		case s.Name == "fleet.gateway":
			clientUS = append(clientUS, micros(roots[s.Parent].dur()-s.dur()))
			fleetSelf[s.ID] += micros(self[s.ID])
		case gateways[s.Parent] != nil && (s.Name == "wire.decode" || s.Name == "wire.encode"):
			fleetSelf[s.Parent] += micros(s.dur())
		}
	}
	var fleetSelfUS []float64
	for _, t := range ts {
		fleetSelfUS = append(fleetSelfUS, fleetSelf[t.gateway])
	}
	m["load.client_us"] = median(clientUS)
	m["fleet.gateway_us"] = median(byName["fleet.gateway"])
	m["fleet.self_us"] = median(fleetSelfUS)
	m["fleet.fanout_skew_us"] = median(skews)
	m["eis.http_us"] = median(shardHTTP)
	m["eis.http_self_us"] = median(hops)
	if fx.w.trip {
		m["eis.trip_handler_us"] = median(miss)
	} else {
		m["eis.handler_hit_us"] = median(hit)
		m["eis.handler_miss_us"] = median(miss)
	}
	m["eis.self_miss_us"] = median(selfMiss)
	m["cknn.rank_miss_us"] = median(byName["cknn.rank"])
	m["cknn.rank_adapt_us"] = median(byName["cknn.adapt"])
	m["cknn.trip_us"] = median(byName["cknn.trip"])
	m["cknn.self_us"] = median(selfByName["cknn.rank"])
	m["roadnet.expand_us"] = median(byName["roadnet.expand"])
	m["spatial.within_us"] = median(byName["spatial.within"])
	for name, v := range rp.samples {
		m[name] = median(v)
	}
	rows, reconcile := stageTable(spans)
	m["trace.reconcile_ratio"] = reconcile
	return rows, nil
}

// counters reads the change of the program's registry between two
// snapshots, by name. A name the registry does not hold is a counter that
// was renamed or removed, not a layer that sat idle: it is remembered, and
// err fails the run over it.
type counters struct {
	delta, after map[string]float64
	missing      []string
}

func countersBetween(before, after map[string]float64) *counters {
	return &counters{delta: obs.DeltaSnapshot(before, after), after: after}
}

func (c *counters) get(name string) float64 {
	if _, ok := c.after[name]; !ok {
		c.missing = append(c.missing, name)
	}
	return c.delta[name]
}

func (c *counters) err() error {
	if len(c.missing) == 0 {
		return nil
	}
	return fmt.Errorf("the program's registry has no %v: the per-layer counts read counters that no longer exist", c.missing)
}

// sampleCounters derives the per-request counts from the program's own
// registry, as deltas over the traced gateway pass.
func sampleCounters(m metricSet, c *counters, n float64) error {
	decodes := c.get("gateway_decode_seconds_wire_count") + c.get("gateway_decode_seconds_json_count")
	m["fleet.decode_us"] = 1e6 * ratio(c.get("gateway_decode_seconds_wire_sum")+c.get("gateway_decode_seconds_json_sum"), decodes)
	m["fleet.shard_requests_op"] = ratio(c.get("gateway_shard_requests_total"), n)

	hits, misses := c.get("eis_rescache_hits_total"), c.get("eis_rescache_misses_total")
	m["eis.rescache_hit_ratio"] = ratio(hits, hits+misses)
	m["eis.computes_op"] = ratio(c.get("eis_singleflight_leads_total"), n)

	adapts := c.get("cknn_cache_hits_total")
	m["cknn.adapt_ratio"] = ratio(adapts, adapts+c.get("cknn_cache_misses_total"))
	evaluated, pruned := c.get("cknn_evaluated_total"), c.get("cknn_prune_rejected_total")
	cands := evaluated + pruned + c.get("cknn_unreachable_total")
	m["cknn.candidates_op"] = ratio(cands, n)
	m["cknn.evaluated_op"] = ratio(evaluated, n)
	m["cknn.prune_ratio"] = ratio(pruned, cands)

	many := c.get("roadnet_many_expansions_total")
	m["roadnet.expansions_op"] = ratio(c.get("roadnet_expansions_total")+many, n)
	m["roadnet.settled_op"] = ratio(c.get("roadnet_many_nodes_settled_total"), n)
	m["roadnet.early_term_ratio"] = ratio(c.get("roadnet_many_early_terminations_total"), many)
	return c.err()
}

// loadCounters derives the counts that only concurrency produces, as deltas
// over the closed-loop phase, per valid answer.
func loadCounters(m metricSet, c *counters, ops float64) error {
	m["fleet.hedges_op"] = ratio(c.get("gateway_hedges_fired_total"), ops)
	m["fleet.shard_failures"] = c.get("gateway_shard_failures_total")
	m["eis.rescache_evictions_op"] = ratio(c.get("eis_rescache_evictions_total"), ops)
	m["eis.coalesced_op"] = ratio(c.get("eis_singleflight_coalesced_total"), ops)
	m["roadnet.pool_news"] = c.get("roadnet_pool_news_total")
	return c.err()
}

// replayer calls the layers below the shard handler again. What it times
// as part of a request becomes a span; what it times on the side (one snap,
// one routed leg, one codec call) is a sample under the metric's name.
type replayer struct {
	rec     *recorder
	workers int
	samples map[string][]float64
}

func (rp *replayer) sample(metric string, v float64) {
	rp.samples[metric] = append(rp.samples[metric], v)
}

// snap times one NearestNode lookup.
func (rp *replayer) snap(env *cknn.Env, lat, lon float64) roadnet.NodeID {
	start := time.Now()
	n := env.Graph.NearestNode(geo.Point{Lat: lat, Lon: lon})
	rp.sample("roadnet.nearest_us", micros(time.Since(start)))
	return n
}

// errDrift says the replay no longer runs what the server runs. The replay
// builds its engine queries with the benchmark's own copy of the handler's
// defaulting, snapping and routing; a table that differs from the one the
// shard served means the copy is stale and every number below eis is timed
// on the wrong input.
func errDrift(t *traced, shard int, what string, replayed, served []int64) error {
	return fmt.Errorf("traced request %s: %s replayed on shard %d ranks chargers %v, the shard served %v: the replay has drifted from the handler",
		t.trace, what, shard, replayed, served)
}

// offering replays one ranked offering request on the shard environment
// the way the handler runs it, checks the table against the one the shard
// served, and returns the ranking's duration.
func (rp *replayer) offering(t *traced, env *cknn.Env, handler span) (float64, error) {
	o := &t.req.offering
	rp.snap(env, o.Lat, o.Lon)
	method := cknn.NewEcoCharge(env, cknn.EcoChargeOptions{RadiusM: o.RadiusM})
	table, d := rp.rank(t.trace, handler.ID, env, method, offeringQuery(env, o))
	// When every shard ranked the request, what a shard now has cached under
	// its key is the table of this very query, and pass B fetched it.
	if t.computes == shards {
		served, err := decodeOffering(t.shard[handler.Shard])
		if err != nil {
			return 0, err
		}
		if ids := entryIDs(served.Entries); !slices.Equal(table.IDs(), ids) {
			return 0, errDrift(t, handler.Shard, "the offering", table.IDs(), ids)
		}
	}
	return micros(d), nil
}

// rank replays one EcoCharge ranking (span cknn.rank, or cknn.adapt when
// the method's dynamic cache answered) and, for a computed table, the calls
// the computation is made of. It returns the table and the ranking's
// duration.
func (rp *replayer) rank(trace string, parent int, env *cknn.Env, method *cknn.EcoCharge, q cknn.Query) (cknn.OfferingTable, time.Duration) {
	evaluated := obs.Default().Counter("cknn_evaluated_total")
	method.SetWorkers(rp.workers)
	eval0 := evaluated.Value()
	id := rp.rec.reserve()
	start := time.Now()
	table := method.Rank(q)
	end := time.Now()
	if table.Adapted {
		rp.rec.put(id, trace, "cknn.adapt", parent, -1, start, end, true)
		return table, end.Sub(start)
	}
	rp.rec.put(id, trace, "cknn.rank", parent, -1, start, end, true)
	nEval := int(evaluated.Value() - eval0)

	var cands []*charger.Charger
	rp.rec.replay(trace, "spatial.within", id, func() { cands = env.Chargers.Within(q.Anchor, q.RadiusM) })
	rp.sample("spatial.candidates", float64(len(cands)))

	// The expansions of Env.deroutingMapsApproxTo: one forward and one
	// reverse many-target search under the mid-traffic weights.
	targets := make([]roadnet.NodeID, 0, len(cands)+1)
	for _, c := range cands {
		targets = append(targets, c.Node)
	}
	targets = append(targets, q.ReturnNode)
	lo, hi := env.Traffic.ClassWeightTables(q.ETABase, q.Now)
	var mid roadnet.ClassWeights
	for c := range mid {
		mid[c] = (lo[c] + hi[c]) / 2
	}
	budget := env.MaxDeroutSec * q.RadiusM / radiusM
	rp.rec.replay(trace, "roadnet.expand", id, func() {
		env.Graph.ExpandToMany(q.AnchorNode, targets, mid, budget).Release()
	})
	rp.rec.replay(trace, "roadnet.expand", id, func() {
		env.Graph.ExpandToManyReverse(q.ReturnNode, targets, mid, budget).Release()
	})

	if nEval > len(cands) {
		nEval = len(cands)
	}
	if nEval > 0 {
		_, d := rp.rec.replay(trace, "ec.forecasts", id, func() {
			for _, c := range cands[:nEval] {
				env.LForecast(c, q.ETABase, q.Now)
				env.AForecast(c, q.ETABase, q.Now)
			}
		})
		rp.sample("ec.forecast_us", micros(d)/float64(nEval))
	}
	return table, end.Sub(start)
}

// trip replays one whole-trip request on the shard environment: routing,
// the continuous evaluation (checked, table by table, against what the
// shard served), then the same segments one ranking at a time to tell
// computed tables from adapted ones.
func (rp *replayer) trip(t *traced, env *cknn.Env, handler span) error {
	tr := &t.req.tripReq
	var (
		trip trajectory.Trip
		opts cknn.TripOptions
		err  error
	)
	rp.rec.replay(t.trace, "roadnet.route", handler.ID, func() { trip, opts, err = tripOf(env, tr) })
	if err != nil {
		return err
	}
	opts.Workers = rp.workers
	eco := cknn.EcoChargeOptions{RadiusM: tr.RadiusM, ReuseDistM: tr.ReuseDistM}
	var results []cknn.SegmentResult
	tripSpan, _ := rp.rec.replay(t.trace, "cknn.trip", handler.ID, func() {
		results = cknn.RunTrip(env, cknn.NewEcoCharge(env, eco), trip, opts)
	})
	var served eis.TripOfferingResponse
	if err := json.Unmarshal(t.shard[handler.Shard].body, &served); err != nil {
		return err
	}
	if len(served.Segments) != len(results) {
		return fmt.Errorf("traced request %s: the trip replayed on shard %d has %d segments, the shard served %d: the replay has drifted from the handler",
			t.trace, handler.Shard, len(results), len(served.Segments))
	}
	for i, seg := range served.Segments {
		if ids := entryIDs(seg.Entries); !slices.Equal(results[i].Table.IDs(), ids) {
			return errDrift(t, handler.Shard, fmt.Sprintf("segment %d", i), results[i].Table.IDs(), ids)
		}
	}
	method := cknn.NewEcoCharge(env, eco)
	for _, seg := range trajectory.SegmentTrip(env.Graph, trip, opts.SegmentLenM) {
		rp.rank(t.trace, tripSpan, env, method, cknn.QueryForSegment(trip, seg, opts))
	}

	// On the side: each snap and each routed leg on its own.
	prev := rp.snap(env, tr.Waypoints[0].Lat, tr.Waypoints[0].Lon)
	for _, wp := range tr.Waypoints[1:] {
		n := rp.snap(env, wp.Lat, wp.Lon)
		if n == prev {
			continue
		}
		start := time.Now()
		env.Graph.ShortestPath(prev, n, roadnet.DistanceWeight)
		rp.sample("roadnet.path_us", micros(time.Since(start)))
		prev = n
	}
	return nil
}

// codecReps repeats each codec call so that a sub-microsecond operation is
// timed over a span the clock resolves.
const codecReps = 32

// perOpNS is the mean duration of fn over codecReps calls, in ns.
func perOpNS(fn func()) float64 {
	start := time.Now()
	for i := 0; i < codecReps; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / codecReps
}

// codecs replays what the gateway does with bodies — decode each shard's
// answer, encode the merged one — as children of the gateway span, and
// times both codecs on the real bodies of the request.
func (rp *replayer) codecs(t *traced, w workload) error {
	if w.trip {
		var resp eis.TripOfferingResponse
		for _, ex := range t.shard {
			var err error
			rp.rec.replay(t.trace, "wire.decode", t.gateway, func() { err = json.Unmarshal(ex.body, &resp) })
			if err != nil {
				return err
			}
			rp.sample("wire.trip_json_dec_us", perOpNS(func() { _ = json.Unmarshal(ex.body, &resp) })/1e3)
			rp.sample("wire.trip_json_bytes", float64(len(ex.body)))
		}
		var merged eis.TripOfferingResponse
		if err := json.Unmarshal(t.merged.body, &merged); err != nil {
			return err
		}
		rp.rec.replay(t.trace, "wire.encode", t.gateway, func() { _, _ = json.Marshal(&merged) })
		return nil
	}

	var resp wire.OfferingResponse
	for _, ex := range t.shard {
		var err error
		rp.rec.replay(t.trace, "wire.decode", t.gateway, func() { err = wire.DecodeOfferingResponse(ex.body, &resp) })
		if err != nil {
			return err
		}
	}
	merged, err := decodeOffering(t.merged)
	if err != nil {
		return err
	}
	wireBody := wire.AppendOfferingResponse(nil, merged)
	jsonBody, err := json.Marshal(merged)
	if err != nil {
		return err
	}
	rp.rec.replay(t.trace, "wire.encode", t.gateway, func() {
		if w.plane == load.PlaneWire {
			wire.AppendOfferingResponse(wireBody[:0], merged)
		} else {
			_, _ = json.Marshal(merged)
		}
	})

	o := &t.req.offering
	reqWire := wire.AppendOfferingRequest(nil, o)
	var oreq wire.OfferingRequest
	rp.sample("wire.enc_req_ns", perOpNS(func() { wire.AppendOfferingRequest(reqWire[:0], o) }))
	rp.sample("wire.dec_req_ns", perOpNS(func() { _ = wire.DecodeOfferingRequest(reqWire, &oreq) }))
	rp.sample("wire.enc_resp_ns", perOpNS(func() { wire.AppendOfferingResponse(wireBody[:0], merged) }))
	rp.sample("wire.dec_resp_ns", perOpNS(func() { _ = wire.DecodeOfferingResponse(wireBody, &resp) }))
	rp.sample("wire.json_enc_resp_ns", perOpNS(func() { _, _ = json.Marshal(merged) }))
	rp.sample("wire.json_dec_resp_ns", perOpNS(func() { _ = json.Unmarshal(jsonBody, &resp) }))
	rp.sample("wire.resp_bytes", float64(len(wireBody)))
	rp.sample("wire.json_resp_bytes", float64(len(jsonBody)))
	return nil
}
