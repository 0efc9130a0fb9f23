package fleet

import (
	"context"
	"slices"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/eis"
	"ecocharge/internal/geo"
	"ecocharge/internal/roadnet"
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
// builds its derouting maps from the block instead of searching (the travel
// of cknn.RankOnce) and the tables come out bit-identical.
//
// The world is one: the shards' own, rebuilt from the same flags, which each
// shard states at every probe and the gateway checks; each shard's
// candidates are its partition of that world (member.chargers). The filter
// of the keys sent (member.seen) is soft state, re-learned from the requests
// on the key the shards' caches file by (eis.Offering.KeyHash), and not a
// correctness input. A shard that hits its cache ignores the block; a shard
// that misses without one (the filter said "seen" of a key the shard
// declined to keep or lost, a directed graph, a world not yet stated)
// searches for itself as it always did; a shard that finds the block short of
// a candidate (it holds a charger the gateway's world lacks) or malformed
// discards it and searches for itself. A wrong guess costs a search
// somewhere, never a table.
//
// A trip is the same hand-over along a route (supplyTrip): the gateway plans
// it once, in front of the fan-out, hands every shard the route, and searches
// once for every segment the shards' dynamic caches will compute. A shard
// that finds the route wrong for its own snaps or graph routes the trip
// itself (eis.TripOffering.Follow).

// appendTargets appends to fo.targets the road nodes of set's chargers
// within radius meters of p, one per charger: the shard's candidates
// (charger.Set.WithinInto), from its partition of the gateway's world.
func (fo *fanout) appendTargets(set *charger.Set, p geo.Point, radius float64) {
	for _, c := range set.WithinInto(&fo.cands, p, radius) {
		fo.targets = append(fo.targets, c.Node)
	}
}

// supplyTravel decides, shard by shard, whether the offering request in
// fo.req (resolved: o) will miss the shard's response cache, runs the
// ranking's one network search for those that will, and replaces their
// request bodies with wire requests that carry their travel times. It reports
// false, and leaves fo.calls alone, when there is nothing to supply.
func (g *Gateway) supplyTravel(fo *fanout, o *eis.Offering) bool {
	anchor, key := roadnet.Invalid, o.KeyHash()
	fo.startSupply()
	for _, m := range g.members {
		seen := m.seen.Load()
		start := len(fo.targets)
		if seen == nil || seen.Observe(key, o.Now) {
			fo.spans = append(fo.spans, span{start, start, false})
			continue
		}
		if anchor == roadnet.Invalid {
			if anchor = g.env.Graph.NearestNode(o.P); anchor == roadnet.Invalid {
				return false
			}
		}
		fo.appendTargets(m.chargers, o.P, o.RadiusM)
		fo.spans = append(fo.spans, span{start, len(fo.targets), true})
	}
	if len(fo.targets) == 0 {
		// Every shard has seen the key, none can be searched for, or no
		// charger is within R — a ranking of nothing, which costs a shard
		// nothing to search for.
		return false
	}
	if !g.search(fo, cknn.EcoChargeOptions{RadiusM: o.RadiusM}, o.Query(anchor), wire.TravelBlock{}) {
		return false
	}
	fo.supplyBlocks(fo.calls[0].body) // the request every shard was set to send
	return true
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
// plain request, and route it themselves — when no shard can be searched
// for, the trip does not route (the shards say why), or the deadline, one
// ShardTimeout for the plan and its searches, ran out.
func (g *Gateway) supplyTrip(ctx context.Context, fo *fanout, t *eis.TripOffering) (supplied bool) {
	fo.sets = fo.sets[:0]
	some := false
	for _, m := range g.members {
		var set *charger.Set
		if m.seen.Load() != nil {
			set = m.chargers
		}
		fo.sets = append(fo.sets, set)
		some = some || set != nil
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

	fo.startSupply()
	for _, si := range cknn.ComputedSegments(segs, eco) {
		if ctx.Err() != nil {
			return false
		}
		q := cknn.QueryForSegment(trip, segs[si], opts)
		for _, set := range fo.sets {
			start := len(fo.targets)
			if set != nil {
				fo.appendTargets(set, q.Anchor, t.RadiusM)
			}
			fo.spans = append(fo.spans, span{start, len(fo.targets), set != nil})
		}
		if !g.search(fo, eco, q, wire.TravelBlock{Segment: si, TwoLegs: true}) {
			return false
		}
	}

	// Every request carries the route too, which the shard checks and follows
	// (eis.TripOffering.Follow) instead of routing the trip again.
	fo.trip.Route = trip.Path.Nodes
	buf := wire.GetBuffer()
	buf.B = wire.AppendTripRequest(buf.B, &fo.trip)
	fo.supplyBlocks(buf.B)
	wire.PutBuffer(buf)
	return true
}

// search runs the search of q — an offering's ranking, or a trip segment's —
// to the targets appended since the last search, the shards' runs (fo.spans)
// one after the other, and appends what it found: the times of both legs at
// every target and at q's return node, which closes the run and whose
// outbound time is the on-route baseline, and the block's head.
func (g *Gateway) search(fo *fanout, eco cknn.EcoChargeOptions, q cknn.Query, head wire.TravelBlock) bool {
	first := len(fo.seconds)
	fo.targets = append(fo.targets, q.ReturnNode)
	ts, ok := cknn.SearchTravel(g.env, eco, q, fo.targets[first:])
	defer ts.Release()
	if !ok {
		return false
	}
	for _, n := range fo.targets[first:] {
		fo.seconds, fo.back = append(fo.seconds, ts.Seconds(n)), append(fo.back, ts.ReturnSeconds(n))
	}
	head.World, head.Anchor, head.Return, head.Base = g.world, q.AnchorNode, q.ReturnNode, fo.seconds[len(fo.seconds)-1]
	head.ScaleLo, head.ScaleHi = ts.Scales()
	fo.blocks = append(fo.blocks, head)
	return true
}

// supplyBlocks gives every shard searched for a body of its own: req, the
// request without blocks, and after it the shard's run of every search.
func (fo *fanout) supplyBlocks(req []byte) {
	shards := len(fo.calls)
	for i := range fo.calls {
		if !fo.spans[i].supplied {
			continue
		}
		size := len(req)
		for j := range fo.blocks {
			sp := fo.spans[j*shards+i]
			size += wire.TravelBlockSize(sp.end-sp.start, fo.blocks[j].TwoLegs)
		}
		// Encoded once, into the shard's own storage, grown to its size
		// first.
		body := append(slices.Grow(fo.bodies[i][:0], size), req...)
		for j := range fo.blocks {
			sp := fo.spans[j*shards+i]
			body = wire.AppendTravelBlock(body, &fo.blocks[j], fo.targets[sp.start:sp.end], fo.seconds[sp.start:sp.end], fo.back[sp.start:sp.end])
		}
		fo.bodies[i], fo.calls[i].body = body, body
		met.travelSupplied.Add(uint64(len(fo.blocks)))
	}
}

// span is one shard's run of a search's targets — the nodes of its chargers
// within R, possibly none — and whether the shard is sent the search.
type span struct {
	start, end int
	supplied   bool
}
