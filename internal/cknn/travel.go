package cknn

import (
	"math"

	"ecocharge/internal/charger"
	"ecocharge/internal/roadnet"
)

// This file is the seam a fleet cuts a ranking at. Sharding by charger ID
// scatters every shard's chargers over the whole map, so the shards of one
// request would each run the same search from the same anchor to nearly the
// same ball. The gateway runs it once instead (SearchTravel) and hands every
// shard the raw travel times at its own chargers (Travel), which the shard
// loads in place of a search (suppliedDerouting). Both sides go through the
// halves of the one derouting builder, deroutingMaps. A stand-alone ranking
// returns to its anchor and is one leg; a trip segment returns to its end and
// is two.

// oneSearchServes reports whether one expansion from the anchor is the whole
// search of a ranking of q: approximate bounds (one class table) and a return
// to the anchor over a graph whose return leg is the outbound one.
func (env *Env) oneSearchServes(q Query, bounds deroutBounds) bool {
	return bounds == approxBounds && q.returnNode() == q.AnchorNode && env.Graph.Symmetric()
}

// TravelSearch is the network search of one cache-miss ranking, run apart
// from the ranking. Release it once the travel times are read.
type TravelSearch struct {
	d DeroutingMaps
}

// SearchTravel runs the search a cache-miss ranking of q under opts would run
// (RankOnce, or EcoCharge.Rank on a trip segment), to the given target nodes
// instead of one inventory's candidates; they include q's return node when
// that is not its anchor, as a ranking's own targets do. ok is false, and
// nothing was searched, under exact bounds: there are then two sets of travel
// times, not one to hand out with a band around it.
func SearchTravel(env *Env, opts EcoChargeOptions, q Query, targets []roadnet.NodeID) (TravelSearch, bool) {
	opts = opts.withDefaults()
	q = opts.evalQuery(q)
	budget, bounds := opts.deroutPlan(q)
	if bounds != approxBounds {
		return TravelSearch{}, false
	}
	return TravelSearch{d: env.searchDerouting(q, budget, targets, bounds)}, true
}

// Scales returns the factors that turn a raw travel time into its lower and
// upper bound.
func (t TravelSearch) Scales() (lo, hi float64) { return t.d.scaleLo, t.d.scaleHi }

// Seconds returns the raw travel time from the anchor to a target, +Inf when
// the search ended without reaching it.
func (t TravelSearch) Seconds(n roadnet.NodeID) float64 {
	return distOr(t.d.fwdLo, n, math.Inf(1))
}

// ReturnSeconds returns the raw travel time from a target to the query's
// return node, +Inf when the search ended without reaching it.
func (t TravelSearch) ReturnSeconds(n roadnet.NodeID) float64 {
	return distOr(t.d.retLo, n, math.Inf(1))
}

// Release returns the search's scratch to the graph's pool; a search that
// was declined holds none.
func (t TravelSearch) Release() {
	if t.d.n > 0 {
		t.d.Release()
	}
}

// Travel is a TravelSearch as it arrives at a ranking that did not run it:
// the node it started from — the query point, snapped once, by whoever
// searched — the node its return leg ended at, and what the search said of
// each of Times' nodes. Return is roadnet.Invalid for the one-leg search of a
// ranking that returns to its anchor over a symmetric graph; the times back
// are then not read.
type Travel struct {
	Anchor, Return   roadnet.NodeID
	ScaleLo, ScaleHi float64
	Times            TravelTimes
}

// TravelTimes are the verdicts of a search as its sender laid them out, read
// in place: the shard's side of the seam loads them from the request's bytes.
type TravelTimes interface {
	Len() int
	// At returns the i-th node and what TravelSearch.Seconds and
	// ReturnSeconds said of it.
	At(i int) (n roadnet.NodeID, out, back float64)
}

// suppliedDerouting builds the derouting maps of a ranking of q over cands
// from a search run elsewhere: expansions nobody ran here, under fresh
// stamps, through the same assembly as a search of our own — Cost, TravelTo,
// pruning and rankPool cannot tell the difference, and a settled target's
// distance does not depend on which other targets the search had, so the
// tables are bit-identical. ok is false, and nothing is held, when the travel
// times cannot stand in for this ranking's search: they start or return
// somewhere else, the ranking searches under exact bounds or, on one leg,
// takes two, the scale factors are not a band around 1, the values do not
// load, or they do not cover a candidate or the return node (whose outbound
// time is the on-route baseline).
func (env *Env) suppliedDerouting(q Query, cands []*charger.Charger, bounds deroutBounds, t *Travel) (DeroutingMaps, bool) {
	ret := q.returnNode()
	twoLegs := t.Return != roadnet.Invalid
	switch {
	case t.Anchor != q.AnchorNode, twoLegs && (t.Return != ret || bounds != approxBounds), !twoLegs && !env.oneSearchServes(q, bounds),
		!(t.ScaleLo > 0 && t.ScaleLo <= 1 && t.ScaleHi >= 1 && t.ScaleHi < math.Inf(1)):
		return DeroutingMaps{}, false
	}
	d := DeroutingMaps{scaleLo: t.ScaleLo, scaleHi: t.ScaleHi}
	refuse := func() (DeroutingMaps, bool) {
		for _, x := range d.owned[:d.n] {
			x.Release()
		}
		return DeroutingMaps{}, false
	}
	fwd, ok := env.Graph.SupplyFrom(t.Anchor)
	if !ok {
		return refuse()
	}
	d.own(fwd)
	back := fwd
	if twoLegs {
		if back, ok = env.Graph.SupplyFrom(ret); !ok {
			return refuse()
		}
		d.own(back)
	}
	for i, n := 0, t.Times.Len(); i < n; i++ {
		node, out, in := t.Times.At(i)
		if !fwd.Supply(node, out) || twoLegs && !back.Supply(node, in) {
			return refuse()
		}
	}
	if !fwd.Covers(ret) {
		return refuse()
	}
	for _, c := range cands {
		if !fwd.Covers(c.Node) {
			return refuse()
		}
	}
	d.fwdLo, d.retLo = fwd, back
	d.assemble(q, bounds)
	return d, true
}

// RoadWorld identifies everything a network search in this environment
// depends on besides the query: the road graph, node by node and arc by arc,
// and the traffic model's parameters. Two environments with the same value
// answer SearchTravel alike, which is what a gateway checks before it lets
// its own search stand in for a shard's. It walks the graph; call it once.
func (env *Env) RoadWorld() uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211 // FNV-1a prime
	}
	g := env.Graph
	mix(uint64(g.NumNodes()))
	for n := 0; n < g.NumNodes(); n++ {
		p := g.Node(roadnet.NodeID(n)).P
		mix(math.Float64bits(p.Lat))
		mix(math.Float64bits(p.Lon))
	}
	for _, e := range g.Edges() {
		mix(uint64(e.From))
		mix(uint64(e.To))
		mix(math.Float64bits(e.Length))
		mix(uint64(e.Class))
	}
	mix(uint64(env.Traffic.Seed))
	mix(math.Float64bits(env.Traffic.PeakSeverity))
	return h
}
