package fleet

import (
	"context"
	"sync/atomic"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/eis"
	"ecocharge/internal/geo"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/spatial"
	"ecocharge/internal/trajectory"
	"ecocharge/internal/wire"
)

// This file is the one road search of a fleet ranking. Rendezvous sharding
// scatters every shard's chargers over the whole map, so on a response-cache
// miss all the shards would run the same network expansion from the same
// anchor under the same class table to nearly the same ball. A gateway that
// was given the road world (Options.Env) runs it once, to the chargers of
// every shard it expects to miss, and appends to each such shard's request
// that shard's slice of the travel times (wire.TravelBlock). The shard
// builds its derouting maps from the block instead of searching
// (cknn.RankOnceSupplied) and the tables come out bit-identical.
//
// Everything the gateway holds for this is soft state — the world is the
// shards' own, rebuilt from the same flags; inventories, cache terms and the
// filter below are re-learned from the shards — and none of it is a
// correctness input. A shard that hits its cache ignores the block; a shard
// that misses without one (the filter said "seen", a directed graph, no
// inventory yet, a request without an issue time) searches for itself as it
// always did; a shard that finds the block short of a candidate
// (a stale inventory here) or malformed discards it and searches for itself.
// A wrong guess costs a search somewhere, never a table.
//
// A trip is the same hand-over along a route (supplyTrip): the gateway plans
// it once, in front of the fan-out, hands every shard the route, and searches
// once for every segment the shards' dynamic caches will compute. A shard
// that finds the route wrong for its own snaps or graph routes the trip
// itself (eis.TripOffering.Follow).

// supplyTerms is what the gateway needs of a shard to search on its behalf:
// how its response cache keys and keeps entries, where its chargers are, and
// which keys it was sent lately. A member has them from its last inventory
// pull, if the shard stated terms and searches the gateway's road world; a
// re-pull (the shard came back from a failure, its cache possibly empty)
// starts over with an empty filter.
//
// sites indexes the inventory's positions, each under the road node its
// charger stands at, and is nil for an empty inventory. The targets of a
// search are read from it by the walk the shard reads its candidates by
// (spatial.Quadtree.AppendItemsWithin over the same positions), so the two
// agree on who is within R to the bit, which the shard checks before it takes
// a block (cknn.suppliedDerouting).
type supplyTerms struct {
	cache eis.CacheTerms
	sites *spatial.Quadtree
	seen  seenFilter
}

func newSupplyTerms(cache eis.CacheTerms, inv []charger.Charger) *supplyTerms {
	t := &supplyTerms{cache: cache}
	if len(inv) == 0 {
		return t
	}
	box := geo.BBox{Min: inv[0].P, Max: inv[0].P}
	for i := range inv {
		box = box.Extend(inv[i].P)
	}
	t.sites = spatial.NewQuadtree(box, 0)
	for i := range inv {
		t.sites.Insert(spatial.Item{P: inv[i].P, ID: int64(inv[i].Node)})
	}
	return t
}

// appendTargets appends to fo.targets the road nodes of the shard's chargers
// within radius meters of p, one per charger.
func (t *supplyTerms) appendTargets(fo *fanout, p geo.Point, radius float64) {
	if t.sites == nil {
		return
	}
	fo.near = t.sites.AppendItemsWithin(fo.near[:0], p, radius)
	for _, it := range fo.near {
		fo.targets = append(fo.targets, roadnet.NodeID(it.ID))
	}
}

// seenFilter remembers the response-cache keys the gateway fanned out to one
// shard within the shard's TTL: for those the shard has a cached table, or
// is computing one, and a travel block would be searched for and thrown
// away. It is a cost hint, fixed in size and lock-free, and wrong in both
// directions — it forgets keys (sets overflow, racing writers overwrite each
// other) and remembers what the shard evicted — which only ever moves a
// search from one side of the exchange to the other.
//
// A slot packs a key's 31-bit fingerprint and a mark over the Unix second
// the key was sent at, in the request's own time, which is the time a shard
// expires entries by. Eight slots — one cache line — make a set, and there
// are as many slots as a shard's response cache holds entries by default
// (4 096): what the shard can have cached, the filter can remember. The mark
// says the key was asked for again. A full set gives up a key that was not
// before one that was, as the shard's cache does (respShard.evictLocked) and
// for its reason: the keys that come back are a few hundred cells, the keys
// that do not are every personalised ranking, and a filter that drops a cell
// for one of those has the gateway search for a shard that then answers
// from its cache.
type seenFilter struct {
	slots [filterSets * filterWays]atomic.Uint64
}

const (
	filterWays = 8
	filterSets = 512

	seenSecond = 1<<32 - 1 // the second the key was sent at
	seenAgain  = 1 << 32   // the key was asked for again within its TTL
)

// observe reports whether the key was sent within ttl of now, and records it
// as sent now if not.
func (f *seenFilter) observe(hash uint64, now time.Time, ttl time.Duration) bool {
	set := f.slots[hash%filterSets*filterWays:][:filterWays]
	fp := (hash>>33 | 1) << 33 // never 0: an empty slot matches no key
	sec := uint32(now.Unix())
	expired, once := -1, -1
	for i := range set {
		e := set[i].Load()
		// Age on a 32-bit circle. A request issued before the one that was
		// recorded has a negative age and is fresh, as it is to the shard,
		// which only asks whether now is past the entry's expiry.
		fresh := e != 0 && time.Duration(int32(sec-uint32(e)))*time.Second <= ttl
		switch {
		case fresh && e&^(seenAgain|seenSecond) == fp:
			if e&seenAgain == 0 {
				set[i].CompareAndSwap(e, e|seenAgain)
			}
			return true
		case !fresh && expired < 0:
			expired = i
		case fresh && e&seenAgain == 0 && once < 0:
			once = i
		}
	}
	victim := expired
	if victim < 0 {
		victim = once
	}
	if victim < 0 {
		// Every key of the set came back: all start over, and one goes.
		for i := range set {
			e := set[i].Load()
			set[i].CompareAndSwap(e, e&^seenAgain)
		}
		victim = int(hash >> 10 % filterWays)
	}
	set[victim].Store(fp | uint64(sec))
	return false
}

// supplyTravel decides, shard by shard, whether the offering request in
// fo.req (resolved: o) will miss the shard's response cache, runs the
// ranking's one network search for those that will, and replaces their
// request bodies with wire requests that carry their travel times. It leaves
// fo.calls alone when there is nothing to supply.
func (g *Gateway) supplyTravel(fo *fanout, o *eis.Offering) {
	if fo.req.Now.IsZero() {
		return // the shards would each rank at their own clock's time
	}
	anchor := roadnet.Invalid
	fo.targets = fo.targets[:0]
	for i, m := range g.members {
		fo.spans[i] = span{}
		t := m.supply.Load()
		if t == nil || t.seen.observe(t.cache.KeyHash(o), o.Now, t.cache.TTL) {
			continue
		}
		if anchor == roadnet.Invalid {
			if anchor = g.env.Graph.NearestNode(o.P); anchor == roadnet.Invalid {
				clear(fo.spans)
				return
			}
		}
		start := len(fo.targets)
		t.appendTargets(fo, o.P, o.RadiusM)
		fo.spans[i] = span{start, len(fo.targets), true}
	}
	if len(fo.targets) == 0 {
		// Every shard has seen the key, none can be searched for, or no
		// charger is within R — a ranking of nothing, which costs a shard
		// nothing to search for.
		clear(fo.spans)
		return
	}
	ts, ok := cknn.SearchTravel(g.env, cknn.EcoChargeOptions{RadiusM: o.RadiusM}, o.Query(anchor), fo.targets)
	defer ts.Release()
	if !ok {
		clear(fo.spans)
		return
	}
	fo.seconds = fo.seconds[:0]
	for _, n := range fo.targets {
		fo.seconds = append(fo.seconds, ts.Seconds(n))
	}
	fo.block.Anchor = anchor
	fo.block.ScaleLo, fo.block.ScaleHi = ts.Scales()

	header := g.header(wire.ContentType, wire.ContentType)
	fo.req.Travel = &fo.block
	buf := wire.GetBuffer()
	for i, sp := range fo.spans {
		if !sp.supplied {
			continue
		}
		fo.block.Nodes, fo.block.Seconds = fo.targets[sp.start:sp.end], fo.seconds[sp.start:sp.end]
		buf.B = wire.AppendOfferingRequest(buf.B[:0], &fo.req)
		// A right-sized copy the garbage collector owns, like the client's
		// body it replaces (readBody): attempts never get pooled bytes.
		fo.calls[i].body = append(make([]byte, 0, len(buf.B)), buf.B...)
		fo.calls[i].header = header
		met.travelSupplied.Inc()
	}
	wire.PutBuffer(buf)
	fo.req.Travel = nil
	fo.block.Nodes, fo.block.Seconds = nil, nil
}

// supplyTrip is supplyTravel along a route: it plans the trip in fo.trip
// (resolved: t) as every shard would — routes it, segments it, and names the
// segments the shards' dynamic caches will compute rather than adapt
// (cknn.ComputedSegments) — runs each such segment's two-leg search once, to
// the chargers of every shard it may search for, and replaces those shards'
// request bodies with wire requests that carry the route and one travel block
// a computed segment. The plan is exact unless a shard's table comes out
// empty; that shard then computes a segment it has no block for, and searches
// for it. It reports false and leaves fo.calls alone — the shards get the
// client's JSON, and route it themselves —
// when the trip has no departure (each shard would plan at its own clock's
// time) or one the binary plane does not carry, no shard can be searched for,
// the trip does not route (the shards say why), or the deadline, one
// ShardTimeout for the plan and its searches, ran out.
func (g *Gateway) supplyTrip(ctx context.Context, fo *fanout, t *eis.TripOffering) (supplied bool) {
	if fo.trip.Depart.IsZero() || !wire.CarriesTime(fo.trip.Depart) {
		return false
	}
	members := len(g.members)
	fo.terms = fo.terms[:0]
	some := false
	for _, m := range g.members {
		terms := m.supply.Load()
		fo.terms = append(fo.terms, terms)
		some = some || terms != nil
	}
	if !some {
		return false
	}
	ctx, cancel := context.WithTimeout(ctx, g.opts.ShardTimeout)
	defer cancel()
	trip, _, err := t.Route(ctx, g.env.Graph)
	if err != nil {
		return false
	}
	eco, opts := t.Plan()
	segs := trajectory.SegmentTrip(g.env.Graph, trip, opts.SegmentLenM)

	fo.targets, fo.seconds, fo.back = fo.targets[:0], fo.seconds[:0], fo.back[:0]
	fo.blocks, fo.tripSpans = fo.blocks[:0], fo.tripSpans[:0]
	for _, si := range cknn.ComputedSegments(segs, eco) {
		if ctx.Err() != nil {
			return false
		}
		q := cknn.QueryForSegment(trip, segs[si], opts)
		first := len(fo.targets)
		for _, terms := range fo.terms {
			start := len(fo.targets)
			if terms != nil {
				terms.appendTargets(fo, q.Anchor, t.RadiusM)
			}
			fo.tripSpans = append(fo.tripSpans, span{start, len(fo.targets), terms != nil})
		}
		// The return node, whose outbound time is the on-route baseline.
		fo.targets = append(fo.targets, q.ReturnNode)
		if !g.searchSegment(fo, eco, q, si, first) {
			return false
		}
	}

	// Every request carries the route too, which the shard checks and follows
	// (eis.TripOffering.Follow) instead of routing the trip again.
	fo.trip.Route = trip.Path.Nodes
	header := g.header(wire.ContentType, wire.ContentType)
	for i, terms := range fo.terms {
		if terms == nil {
			continue
		}
		entries := 0
		for j := range fo.blocks {
			sp := fo.tripSpans[j*members+i]
			entries += sp.end - sp.start
		}
		// Encoded once, into bytes the garbage collector owns (attempts never
		// get pooled ones, see supplyTravel) and that are sized for it.
		body := make([]byte, 0, wire.TripRequestSize(&fo.trip, len(fo.blocks), entries))
		body = wire.AppendTripRequest(body, &fo.trip)
		for j := range fo.blocks {
			sp := fo.tripSpans[j*members+i]
			body = wire.AppendTripBlock(body, &fo.blocks[j], fo.targets[sp.start:sp.end], fo.seconds[sp.start:sp.end], fo.back[sp.start:sp.end])
		}
		fo.calls[i].body, fo.calls[i].header = body, header
		met.travelSupplied.Add(uint64(len(fo.blocks)))
	}
	return true
}

// searchSegment runs the two-leg search of trip segment si's query to
// fo.targets[first:] and appends what it found: the times of both legs at
// every target, and the block's head.
func (g *Gateway) searchSegment(fo *fanout, eco cknn.EcoChargeOptions, q cknn.Query, si, first int) bool {
	ts, ok := cknn.SearchTravel(g.env, eco, q, fo.targets[first:])
	defer ts.Release()
	if !ok {
		return false
	}
	for _, n := range fo.targets[first:] {
		fo.seconds, fo.back = append(fo.seconds, ts.Seconds(n)), append(fo.back, ts.ReturnSeconds(n))
	}
	lo, hi := ts.Scales()
	fo.blocks = append(fo.blocks, wire.TripBlock{
		Segment: si, Anchor: q.AnchorNode, Return: q.ReturnNode,
		ScaleLo: lo, ScaleHi: hi, Base: fo.seconds[len(fo.seconds)-1],
	})
	return true
}

// span is one shard's run of fo.targets — the nodes of its chargers within R,
// possibly none — when the shard is sent a block.
type span struct {
	start, end int
	supplied   bool
}
