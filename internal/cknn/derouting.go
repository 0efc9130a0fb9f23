package cknn

import (
	"math"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/interval"
	"ecocharge/internal/roadnet"
)

// DeroutingMaps hold the network expansions that price a visit to any
// charger from one query point (Algorithm 1 lines 9–10): forward distances
// from the anchor and reverse distances back to the return node, each under
// the traffic model's lower and upper travel-time weights.
//
// Derouting is the *extra* travel the visit causes relative to staying on
// the route: derout(b) = t(anchor→b) + t(b→return) − t(anchor→return),
// which is zero for a charger on the route, matching the paper's "no
// derouting occurs" case.
//
// The expansions are slice-backed views over pooled search scratch
// (roadnet.Expansion); Cost and TravelTo read the dense arrays directly and
// apply the lazy scaleLo/scaleHi factors per element, so the approximate
// variant never materializes scaled copies of whole distance maps. Callers
// that obtain a DeroutingMaps must Release it when the Offering Table is
// built; the zero value is valid and prices nothing.
type DeroutingMaps struct {
	fwdLo, fwdHi roadnet.Expansion // seconds from anchor (lower/upper weights)
	retLo, retHi roadnet.Expansion // seconds to return node
	// scaleLo/scaleHi multiply raw expansion values on read: 1/1 for the
	// exact variant, the per-class multiplier ratios for the approximate one.
	scaleLo, scaleHi float64
	// owned[:n] are the expansions this value acquired, at most one per view;
	// a view that is not in there aliases one that is (approximate bounds:
	// hi onto lo; a round trip on a symmetric graph: ret onto fwd).
	owned  [4]roadnet.Expansion
	n      int
	baseLo float64 // anchor→return under lower weights
	baseHi float64 // anchor→return under upper weights
}

// Release returns the underlying expansion scratch to the graph's pool.
// It must be called exactly once, after the last Cost/TravelTo read.
func (d DeroutingMaps) Release() {
	met.deroutReleases.Inc()
	// Only what was acquired: releasing an alias as well could free scratch
	// a concurrent query just re-acquired.
	for _, x := range d.owned[:d.n] {
		x.Release()
	}
}

// deroutTargets collects the road-network nodes the filtering phase will
// read from the derouting maps: one per candidate charger plus the return
// node (whose forward distance is the on-route baseline). It is the only
// producer of the target slices handed to deroutingMaps, which relies on the
// return node being present.
func deroutTargets(cands []*charger.Charger, ret roadnet.NodeID) []roadnet.NodeID {
	out := make([]roadnet.NodeID, 0, len(cands)+1)
	for _, c := range cands {
		out = append(out, c.Node)
	}
	return append(out, ret)
}

// deroutBounds says where deroutingMaps takes the lower and upper travel
// times from.
type deroutBounds uint8

const (
	// exactBounds searches once under the lower and once under the upper
	// weight table.
	exactBounds deroutBounds = iota
	// approxBounds — what EcoCharge uses on cache misses — searches once
	// under the mid-traffic table and derives the bounds by scaling every
	// distance by the most optimistic and most pessimistic per-class
	// multiplier ratios: half the Dijkstra work for slightly wider (but still
	// truth-covering, up to route divergence) intervals. The ratios are
	// applied lazily on read, the hi views alias the lo ones, nothing is
	// copied.
	approxBounds
)

// deroutingMaps is the one builder of DeroutingMaps, over two independent
// choices: exact | approx bounds (deroutBounds), and batched | full ball. It
// is a search followed by an assembly; a ranking whose search was run
// elsewhere (suppliedDerouting) goes through the same assembly.
//
// With targets (from deroutTargets) every expansion
// stops as soon as the last target is settled — Alg. 1 prices a few hundred
// candidates, the travel-time ball holds orders of magnitude more — and
// Cost/TravelTo are exact only at the targets. With targets == nil, or under
// the environment's FullDerouting oracle switch, the whole ball within
// boundSec is settled. The two are byte-identical at the targets
// (derouting_batch_test.go), so which one runs is purely a cost decision.
//
// Either way each weight table costs one expansion from the anchor and one to
// the return node — except for a query that returns to its anchor on a
// Symmetric graph (every one-shot ranking on the undirected networks of the
// paper): there the second is the first, bit for bit (DESIGN.md §8), and the
// ret views alias the fwd ones. boundSec limits the search effort; pass
// math.Inf(1) for the exhaustive (brute-force) variant.
func (env *Env) deroutingMaps(q Query, boundSec float64, targets []roadnet.NodeID, bounds deroutBounds) DeroutingMaps {
	d := env.searchDerouting(q, boundSec, targets, bounds)
	d.assemble(q, bounds)
	return d
}

// returnNode is where the query's vehicle rejoins its route.
func (q Query) returnNode() roadnet.NodeID {
	if q.ReturnNode < 0 {
		return q.AnchorNode
	}
	return q.ReturnNode
}

// searchDerouting is the search half of deroutingMaps: the class tables of
// the query's moment, the scale factors, and the network expansions. What
// it returns owns its expansions and has its lower-bound views in place
// (under exact bounds the upper-bound ones too); assemble makes it readable.
func (env *Env) searchDerouting(q Query, boundSec float64, targets []roadnet.NodeID, bounds deroutBounds) DeroutingMaps {
	if env.FullDerouting {
		targets = nil
	}
	loT, hiT := env.Traffic.ClassWeightTables(q.ETABase, q.Now)
	ret := q.returnNode()
	d := DeroutingMaps{scaleLo: 1, scaleHi: 1}
	if bounds == approxBounds {
		met.deroutApprox.Inc()
		loT, d.scaleLo, d.scaleHi = midTraffic(loT, hiT)
	} else {
		met.deroutExact.Inc()
	}
	if targets != nil {
		met.deroutBatched.Inc()
		met.deroutTargets.Add(uint64(len(targets)))
	}

	d.fwdLo, d.retLo = d.expandLegs(env.Graph, q.AnchorNode, ret, targets, loT, boundSec)
	if bounds == exactBounds {
		d.fwdHi, d.retHi = d.expandLegs(env.Graph, q.AnchorNode, ret, targets, hiT, boundSec)
	}
	return d
}

// assemble is the other half, shared by a search run here and one supplied
// from elsewhere: under approximate bounds the upper-bound views alias the
// lower-bound ones, and the on-route baseline is read off the outbound leg.
func (d *DeroutingMaps) assemble(q Query, bounds deroutBounds) {
	if bounds == approxBounds {
		d.fwdHi, d.retHi = d.fwdLo, d.retLo
	}
	// Return node unreachable within the bound: the on-route baseline stays
	// zero, so derouting reduces to the round-trip cost.
	ret := q.returnNode()
	if base, ok := d.fwdLo.Dist(ret); ok {
		d.baseLo = base * d.scaleLo
		d.baseHi = distOr(d.fwdHi, ret, math.Inf(1)) * d.scaleHi
	}
}

// expandLegs runs the outbound expansion from anchor and the return
// expansion to ret under one weight table, and records both as owned. When
// the return leg is the outbound one read backwards (ret == anchor on a
// Symmetric graph) it runs only that, and hands it back for both.
func (d *DeroutingMaps) expandLegs(g *roadnet.Graph, anchor, ret roadnet.NodeID, targets []roadnet.NodeID, cw roadnet.ClassWeights, boundSec float64) (fwd, back roadnet.Expansion) {
	if targets == nil {
		fwd = g.ExpandFrom(anchor, cw, boundSec)
	} else {
		fwd = g.ExpandToMany(anchor, targets, cw, boundSec)
	}
	d.own(fwd)
	switch {
	case ret == anchor && g.Symmetric():
		return fwd, fwd
	case targets == nil:
		back = g.ExpandTo(ret, cw, boundSec)
	default:
		back = g.ExpandToManyReverse(ret, targets, cw, boundSec)
	}
	d.own(back)
	return fwd, back
}

// own records an expansion Release has to give back.
func (d *DeroutingMaps) own(x roadnet.Expansion) {
	d.owned[d.n] = x
	d.n++
}

// midTraffic returns the mid-traffic weight table of the band [lo, hi] and
// the global scaling band across road classes: the most optimistic lo/mid
// and the most pessimistic hi/mid ratio.
func midTraffic(lo, hi roadnet.ClassWeights) (mid roadnet.ClassWeights, loRatio, hiRatio float64) {
	loRatio, hiRatio = 1.0, 1.0
	for c := range mid {
		mid[c] = (lo[c] + hi[c]) / 2
		if mid[c] <= 0 {
			continue
		}
		if r := lo[c] / mid[c]; r < loRatio {
			loRatio = r
		}
		if r := hi[c] / mid[c]; r > hiRatio {
			hiRatio = r
		}
	}
	return mid, loRatio, hiRatio
}

func distOr(x roadnet.Expansion, id roadnet.NodeID, def float64) float64 {
	if v, ok := x.Dist(id); ok {
		return v
	}
	return def
}

// Cost returns the derouting seconds interval for a charger at node n and
// whether the charger is reachable within the expansions' bound. The
// interval mixes bounds soundly: the optimistic derouting uses optimistic
// legs against the pessimistic baseline, and vice versa.
func (d DeroutingMaps) Cost(n roadnet.NodeID) (interval.I, bool) {
	fRaw, ok1 := d.fwdLo.Dist(n)
	rRaw, ok2 := d.retLo.Dist(n)
	if !ok1 || !ok2 {
		return interval.I{}, false
	}
	fLo := fRaw * d.scaleLo
	rLo := rRaw * d.scaleLo
	fHi := fLo
	if raw, ok := d.fwdHi.Dist(n); ok {
		fHi = raw * d.scaleHi
	}
	rHi := rLo
	if raw, ok := d.retHi.Dist(n); ok {
		rHi = raw * d.scaleHi
	}
	lo := fLo + rLo - d.baseHi
	hi := fHi + rHi - d.baseLo
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	return interval.New(lo, hi), true
}

// TravelTo returns the forward travel-time interval in seconds from the
// anchor to node n, used to derive the charger's ETA.
func (d DeroutingMaps) TravelTo(n roadnet.NodeID) (interval.I, bool) {
	raw, ok := d.fwdLo.Dist(n)
	if !ok {
		return interval.I{}, false
	}
	lo := raw * d.scaleLo
	hi := lo
	if rawHi, ok := d.fwdHi.Dist(n); ok {
		hi = rawHi * d.scaleHi
	}
	if hi < lo {
		hi = lo
	}
	return interval.New(lo, hi), true
}

// etaAt converts a mid travel estimate into the charger's ETA.
func etaAt(base time.Time, travel interval.I) time.Time {
	return base.Add(time.Duration(travel.Mid() * float64(time.Second)))
}
