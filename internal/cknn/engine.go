package cknn

import (
	"math"
	"sync"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/interval"
	"ecocharge/internal/roadnet"
)

// Engine evaluates Estimated Components and builds Offering Tables over an
// environment. All ranking methods share it so their scores differ only by
// candidate selection and caching policy, never by scoring rules.
type Engine struct {
	Env *Env
}

// evaluate computes the Entry of one charger for the query, using the
// derouting maps for the D component. The boolean is false when the charger
// is unreachable within the maps' bound.
func (e *Engine) evaluate(c *charger.Charger, d DeroutingMaps, q Query) (Entry, bool) {
	travel, ok := d.TravelTo(c.Node)
	if !ok {
		return Entry{}, false
	}
	derout, ok := d.Cost(c.Node)
	if !ok {
		return Entry{}, false
	}
	eta := etaAt(q.ETABase, travel)
	var deg Degraded

	// L (Alg. 1 lines 5–6): forecast production (solar + optional wind)
	// capped by the charger's electrical rate, normalized by the
	// environment's maximum level. A failed weather fetch degrades L to
	// the ignorance bound instead of erroring.
	l, ok := e.Env.LForecast(c, eta, q.Now)
	if ok {
		l = capAbove(l, c.Rate.KW()).Normalize(e.Env.MaxLKW)
	} else {
		l = ignoranceBound()
		deg |= DegradedL
	}

	// A (lines 7–8): availability from the busy timetable at the ETA.
	a, ok := e.Env.AForecast(c, eta, q.Now)
	if !ok {
		a = ignoranceBound()
		deg |= DegradedA
	}

	// D (lines 9–10): normalized derouting cost. The expansion itself is
	// local (the road graph is in memory), so only the traffic band can
	// fail; the ETA keeps the graph-derived travel estimate either way.
	var dn interval.I
	if e.Env.DSourceOK(c.ID, q.Now) {
		dn = derout.Normalize(e.Env.MaxDeroutSec)
	} else {
		dn = ignoranceBound()
		deg |= DegradedD
	}

	comp := Components{L: l, A: a, D: dn, ETA: eta, DeroutSecM: derout.Mid(), Degraded: deg}
	countDegraded(deg)
	return Entry{Charger: c, SC: comp.SC(q.Weights), Comp: comp}, true
}

// capAbove limits an interval from above by cap (production cannot charge
// faster than the plug's rate).
func capAbove(x interval.I, cap float64) interval.I {
	if x.Min > cap {
		x.Min = cap
	}
	if x.Max > cap {
		x.Max = cap
	}
	return x
}

// rankPool runs the filtering and refinement phases over a candidate pool:
// chargers are evaluated with interval pruning (a candidate whose cheap
// optimistic bound cannot beat the current k-th pessimistic score skips the
// expensive forecasts), then ranked per eq. 6. Both phases run on the
// caller's goroutine: a ranking is sequential, requests are concurrent.
//
// The candidates are a set. Rank orders by a total order that ends on the
// charger ID, so the order they arrive in — and the order the filtering
// phase visits them in — changes what a ranking costs, never its table.
//
// The filtering phase writes one Entry per surviving candidate and Rank
// copies k of them out, so everything pool-sized between the two phases is
// scratch: it comes from filterBufs and goes back before rankPool returns.
func (e *Engine) rankPool(cands []*charger.Charger, d DeroutingMaps, q Query) []Entry {
	filterStart := time.Now()
	s := filterBufs.Get().(*filterScratch)
	s.fit(len(cands))
	entries := e.evalPool(cands, d, q, s)
	met.filterSeconds.Since(filterStart)
	refineStart := time.Now()
	out := Rank(entries, q.K)
	met.refineSeconds.Since(refineStart)
	if cap(s.entries) <= maxPooledEntries {
		filterBufs.Put(s)
	}
	return out
}

// filterScratch is the filtering phase's storage for one ranking: with room
// for every candidate, the entries it evaluates and per candidate its
// pruneBound and the next candidate of its bucket (evalPool); and the k best
// SC_min seen.
type filterScratch struct {
	entries []Entry
	bound   []float64
	next    []int32
	mins    []float64
}

// fit makes room for n candidates.
func (s *filterScratch) fit(n int) {
	if cap(s.entries) < n {
		s.entries, s.bound, s.next = make([]Entry, 0, n), make([]float64, n), make([]int32, n)
	}
}

// filterBufs recycles the filtering phase's scratch across rankings.
var filterBufs = sync.Pool{New: func() any { return new(filterScratch) }}

// maxPooledEntries caps the capacity a recycled scratch may keep (a few
// megabytes): one ranking over a huge inventory must not pin its scratch in
// the pool forever.
const maxPooledEntries = 1 << 15

// pruneBound is the optimistic SC bound of a candidate, computed before any
// source is asked: the SC of the best components the charger could still be
// given. L cannot exceed what evaluate's capAbove and Normalize leave of the
// nameplate (forecasts never exceed installed capacity, the plug caps the
// rest), A cannot exceed 1, D cannot be better than its lower bound; a
// component whose source is down will be widened to [0,1], so its term
// falls back to the full weight on its own. FaultPolicy purity guarantees
// evaluate sees the same decisions. The terms go through Components.SC
// itself: every step from nameplate to score is monotone and is the step
// evaluate takes, so bound ≥ SC.Max holds in floating point, not only on
// paper. ok is false when the derouting cost is unknown: the candidate is
// unreachable, as evaluate would find from the same lookup.
func (e *Engine) pruneBound(c *charger.Charger, d DeroutingMaps, q Query) (float64, bool) {
	dn, ok := d.Cost(c.Node)
	if !ok {
		return 0, false
	}
	best := Components{L: ignoranceBound(), A: ignoranceBound()}
	if e.Env.sourceOK(CompL, c.ID, q.Now) {
		best.L = interval.Exact(effectiveKW(c)).Normalize(e.Env.MaxLKW)
	}
	if e.Env.DSourceOK(c.ID, q.Now) {
		best.D = interval.Exact(dn.Normalize(e.Env.MaxDeroutSec).Min)
	}
	return best.SC(q.Weights).Max, true
}

// boundBuckets is how finely evalPool orders candidates by pruneBound. A
// power of two: scaling a bound by it is exact, so bucketOf is monotone.
const boundBuckets = 64

// bucketOf files an SC value in [0, 1] under one of boundBuckets equal
// steps, the best scores in the last; anything below the range (the k-th
// SC_min before there are k) goes in the first.
func bucketOf(sc float64) int {
	if !(sc > 0) {
		return 0
	}
	if b := int(sc * boundBuckets); b < boundBuckets {
		return b
	}
	return boundBuckets - 1
}

// evalPool is the filtering phase: it evaluates the candidates that can
// still enter the top-k and returns their entries, in s.entries. Which
// candidates those are depends on how soon the k-th SC_min rises, so it
// visits them best bound first — the order that raises it soonest — and for
// the price of a counting pass, not a sort: every candidate's pruneBound is
// computed up front and the candidates are threaded, in the order given,
// into boundBuckets lists by it. The lists are visited from the best down,
// and the visit ends at the first whose upper edge the k-th SC_min has
// passed; whatever is left there and below is pruned unseen, by the same
// inequality (bound < k-th SC_min) that prunes one candidate.
func (e *Engine) evalPool(cands []*charger.Charger, d DeroutingMaps, q Query, s *filterScratch) []Entry {
	// Every candidate lands in exactly one outcome. The pass counts in locals
	// and publishes once: a shared counter bumped per candidate is a thousand
	// contended atomic adds a ranking.
	var unreachable, evaluated uint64
	var head [boundBuckets]int32
	for b := range head {
		head[b] = -1
	}
	// Back to front, so that each list reads front to back.
	for i := len(cands) - 1; i >= 0; i-- {
		bound, ok := e.pruneBound(cands[i], d, q)
		if !ok {
			unreachable++ // no derouting cost: evaluate would find the same
			continue
		}
		b := bucketOf(bound)
		s.bound[i], s.next[i] = bound, head[b]
		head[b] = int32(i)
	}
	// kthMin tracks the k-th best pessimistic SC seen so far.
	kthMin := math.Inf(-1)
	mins := bottomK{k: q.K, vals: s.mins[:0]}
	entries := s.entries[:0]
	for b := boundBuckets - 1; b >= 0 && bucketOf(kthMin) <= b; b-- {
		for i := head[b]; i >= 0; i = s.next[i] {
			if s.bound[i] < kthMin {
				continue // cannot enter the top-k
			}
			entry, ok := e.evaluate(cands[i], d, q)
			if !ok {
				unreachable++
				continue
			}
			evaluated++
			entries = append(entries, entry)
			if mins.push(entry.SC.Min) {
				kthMin = mins.kth()
			}
		}
	}
	s.mins = mins.vals
	met.pruneRejected.Add(uint64(len(cands)) - unreachable - evaluated)
	met.unreachable.Add(unreachable)
	met.evaluated.Add(evaluated)
	return entries
}

// bottomK maintains the k largest values seen, exposing the smallest of
// them (the k-th best), with a simple insertion structure adequate for the
// small k of Offering Tables.
type bottomK struct {
	k    int
	vals []float64 // ascending, at most k entries, holding the k largest
}

// push inserts v and reports whether the set already holds k values (i.e.
// kth() is meaningful).
func (b *bottomK) push(v float64) bool {
	if b.k <= 0 {
		return false
	}
	if len(b.vals) < b.k {
		b.vals = append(b.vals, v)
		sortInsert(b.vals)
		return len(b.vals) == b.k
	}
	if v > b.vals[0] {
		b.vals[0] = v
		sortInsert(b.vals)
	}
	return true
}

func (b *bottomK) kth() float64 {
	if len(b.vals) < b.k {
		return math.Inf(-1)
	}
	return b.vals[0]
}

// sortInsert restores ascending order after modifying the first element or
// appending; the slice is nearly sorted so one pass suffices.
func sortInsert(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// TruthMaps price chargers under the actual (zero-uncertainty) traffic at
// query time. Experiments use them to score any method's picks against
// ground truth, which is how the SC% metric of the evaluation is defined.
type TruthMaps struct {
	fwd, ret map[roadnet.NodeID]float64
	base     float64
}

// TruthMaps computes the exhaustive truth expansions for the query on the
// one road kernel — one expansion when the query returns to its anchor on a
// Symmetric graph, as in deroutingMaps — and keeps what scoring reads: both
// legs at every charger node of the environment and the on-route baseline.
func (e *Engine) TruthMaps(q Query) TruthMaps {
	q = q.normalized()
	g := e.Env.Graph
	cw := e.Env.Traffic.TruthClassWeights(q.ETABase)
	ret := q.returnNode()
	fwd := g.ExpandFrom(q.AnchorNode, cw, math.Inf(1))
	defer fwd.Release()
	back := fwd
	if ret != q.AnchorNode || !g.Symmetric() {
		back = g.ExpandTo(ret, cw, math.Inf(1))
		defer back.Release()
	}
	all := e.Env.Chargers.All()
	tm := TruthMaps{
		fwd:  make(map[roadnet.NodeID]float64, len(all)),
		ret:  make(map[roadnet.NodeID]float64, len(all)),
		base: distOr(fwd, ret, 0),
	}
	for i := range all {
		n := all[i].Node
		if d, ok := fwd.Dist(n); ok {
			tm.fwd[n] = d
		}
		if d, ok := back.Dist(n); ok {
			tm.ret[n] = d
		}
	}
	return tm
}

// TruthComponents returns the ground-truth normalized objectives of
// charging at c for the query: the charging level l, the availability a,
// and the derouting complement 1−d, all in [0,1]. The boolean is false when
// the charger is unreachable.
func (e *Engine) TruthComponents(q Query, tm TruthMaps, c *charger.Charger) (l, a, dComp float64, ok bool) {
	q = q.normalized()
	f, okF := tm.fwd[c.Node]
	r, okR := tm.ret[c.Node]
	if !okF || !okR {
		return 0, 0, 0, false
	}
	derout := f + r - tm.base
	if derout < 0 {
		derout = 0
	}
	eta := q.ETABase.Add(secondsDur(f))
	prodKW := e.Env.ProductionTruth(c, eta)
	if rate := c.Rate.KW(); prodKW > rate {
		prodKW = rate
	}
	if e.Env.MaxLKW > 0 {
		l = clamp01(prodKW / e.Env.MaxLKW)
	}
	a = 1 - e.Env.Avail.TruthBusy(c.ID, &c.Timetable, eta)
	dComp = 1 - clamp01(derout/e.Env.MaxDeroutSec)
	return l, a, dComp, true
}

// TruthSC returns the ground-truth Sustainability Score of charging at c
// for the query, under the query's weights. The boolean is false when the
// charger is unreachable.
func (e *Engine) TruthSC(q Query, tm TruthMaps, c *charger.Charger) (float64, bool) {
	q = q.normalized()
	l, a, dComp, ok := e.TruthComponents(q, tm, c)
	if !ok {
		return 0, false
	}
	return l*q.Weights.L + a*q.Weights.A + dComp*q.Weights.D, true
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
