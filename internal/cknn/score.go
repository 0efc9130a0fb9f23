// Package cknn implements the paper's primary contribution: the Continuous
// k-Nearest-Neighbor query with Estimated Components (CkNN-EC) and the
// EcoCharge ranking framework built on it (paper §III).
//
// The pipeline per query point is exactly Algorithm 1: evaluate the three
// Estimated Components L (sustainable charging level), A (availability) and
// D (derouting cost) as intervals for every candidate charger (filtering
// phase), combine them into lower/upper Sustainability Scores with eqs. 4–5,
// keep the k best per eq. 6 (refinement phase), and emit a sorted Offering
// Table. Four interchangeable ranking methods mirror the evaluation's
// baselines: BruteForce, IndexQuadtree, Random and EcoCharge (with the
// dynamic R/Q cache of §IV.C).
package cknn

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/geo"
	"ecocharge/internal/interval"
)

// Weights are the user-configurable objective weights w1 (L), w2 (A),
// w3 (D) of the Sustainability Score.
type Weights struct {
	L, A, D float64
}

// EqualWeights is the paper's default configuration (AWE): w1=w2=w3=1/3.
func EqualWeights() Weights { return Weights{L: 1.0 / 3, A: 1.0 / 3, D: 1.0 / 3} }

// OnlyL, OnlyA and OnlyD are the single-objective configurations of the
// ablation study (OSC, OA, ODC).
func OnlyL() Weights { return Weights{L: 1} }

// OnlyA is the availability-only distance function (OA).
func OnlyA() Weights { return Weights{A: 1} }

// OnlyD is the derouting-only distance function (ODC).
func OnlyD() Weights { return Weights{D: 1} }

// Validate reports whether the weights are non-negative and not all zero.
func (w Weights) Validate() error {
	if w.L < 0 || w.A < 0 || w.D < 0 {
		return fmt.Errorf("cknn: negative weight %+v", w)
	}
	//ecolint:ignore floateq exact-zero sentinel: unset weights are literal zeros
	if w.L == 0 && w.A == 0 && w.D == 0 {
		return fmt.Errorf("cknn: all weights zero")
	}
	return nil
}

// Normalized returns the weights scaled to sum to 1, as the paper requires
// (w1 + w2 + w3 = 1). It panics on invalid weights.
func (w Weights) Normalized() Weights {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	s := w.L + w.A + w.D
	return Weights{L: w.L / s, A: w.A / s, D: w.D / s}
}

// sc is the weighted sum of the three objectives, l·w1 + a·w2 + d·w3: the
// Sustainability Score of exact (truth) components under normalised weights.
func (w Weights) sc(l, a, d float64) float64 {
	return l*w.L + a*w.A + d*w.D
}

// Degraded is a bitmask naming the components that fell back to their
// ignorance bound [0,1] because the backing source failed or served stale
// data. Zero means every component was estimated from a live source.
type Degraded uint8

// One bit per Estimated Component, aligned with the Component constants so
// 1<<comp is the bit of component comp.
const (
	DegradedL Degraded = 1 << CompL
	DegradedA Degraded = 1 << CompA
	DegradedD Degraded = 1 << CompD
	// DegradedShard marks an entry whose owning fleet shard did not answer:
	// the gateway synthesized it from the shard's last known inventory with
	// every component at the ignorance bound, so the charger stays in the
	// Offering Table instead of being silently pruned. It always rides with
	// DegradedL|DegradedA|DegradedD — a shard outage degrades all three
	// sources at once — and like them it is metadata: it never enters SC.
	DegradedShard Degraded = 1 << 3
)

// DegradedAll is the fully widened mask a shard outage produces.
const DegradedAll = DegradedL | DegradedA | DegradedD | DegradedShard

// Has reports whether the component's bit is set.
func (d Degraded) Has(c Component) bool { return d&(1<<c) != 0 }

// String renders the set bits as "L|A|D" fragments (plus "shard" for the
// fleet bit); empty when none.
func (d Degraded) String() string {
	s := ""
	for _, c := range [...]Component{CompL, CompA, CompD} {
		if d.Has(c) {
			if s != "" {
				s += "|"
			}
			s += c.String()
		}
	}
	if d&DegradedShard != 0 {
		if s != "" {
			s += "|"
		}
		s += "shard"
	}
	return s
}

// ignoranceBound is the degraded form of a normalized component: with the
// backing source down, the only sound statement is "somewhere in [0,1]" —
// the interval algebra of eqs. 4–6 then carries the uncertainty through SC
// instead of turning the outage into an error.
func ignoranceBound() interval.I { return interval.New(0, 1) }

// Components are the normalized Estimated Components of one charger at one
// query: every field lies in [0, 1]. D is the normalized derouting cost
// where 0 means "on the route" and 1 means "at the derouting budget".
type Components struct {
	L interval.I // sustainable charging level (higher is better)
	A interval.I // availability = 1 − busy (higher is better)
	D interval.I // derouting cost (lower is better)

	ETA        time.Time // estimated arrival at the charger
	DeroutSecM float64   // mid-estimate derouting seconds (diagnostics)
	// Degraded names the components that were defaulted to [0,1] instead
	// of estimated (source failure). It does not enter SC — the widened
	// intervals already do — but callers surface it so clients can tell an
	// estimate from a default.
	Degraded Degraded
}

// SC applies eqs. 4–5: SC = L·w1 + A·w2 + (1−D)·w3 as an interval.
// Weights must already be normalized.
func (c Components) SC(w Weights) interval.I {
	return interval.WeightedSum(
		[]interval.I{c.L, c.A, c.D.Complement()},
		[]float64{w.L, w.A, w.D},
	)
}

// Entry is one Offering Table row: a charger, its interval score, and the
// components behind it.
type Entry struct {
	Charger *charger.Charger
	SC      interval.I
	Comp    Components
}

// OfferingTable is the ranked result the driver sees for one query point
// (paper Fig. 1): chargers for one path segment, sorted best-first.
type OfferingTable struct {
	Anchor      geo.Point // query point the table was computed for
	GeneratedAt time.Time // wall time of the estimate (issuedAt)
	ETABase     time.Time // arrival time at the anchor
	Entries     []Entry   // sorted: highest SC first
	// Adapted reports whether this table was derived from a cached one
	// (dynamic caching hit) rather than computed from scratch.
	Adapted bool
}

// IDs returns the charger IDs of the table in rank order.
func (o OfferingTable) IDs() []int64 {
	ids := make([]int64, len(o.Entries))
	for i, e := range o.Entries {
		ids[i] = e.Charger.ID
	}
	return ids
}

// Rank implements the refinement phase. Eq. 6 intersects the top-k by
// SC_max with the top-k by SC_min, and a short intersection is padded from
// the SC_max ranking so the table "contains k chargers" as the paper
// specifies. That padded form is the top-k by SC_max itself:
//   - the intersection is a subset of the top-k by SC_max;
//   - the padding refills it from the same ranking, best first;
//   - so the k places it ends with are that ranking's first k.
//
// Rank therefore returns the entries Select picks out of the pool, in the
// order it emits them. The pool is neither copied nor reordered.
//
// The rows are written into storage the caller lends, which must not overlap
// the pool: rows' own when it has room for them, so the table aliases it,
// else new storage. A caller that keeps the table lends nil; one that copies
// the rows out at once lends scratch (a shard's offering path).
func Rank(rows, entries []Entry, k int) []Entry {
	if k <= 0 || len(entries) == 0 {
		return nil
	}
	var held [8]int // a table of up to eight rows is selected unallocated
	top := held[:0]
	if k > len(held) {
		top = make([]int, 0, min(k, len(entries)))
	}
	top = Select(top, len(entries), k, func(i int) (interval.I, int64) {
		return entries[i].SC, entries[i].Charger.ID
	})
	out := slices.Grow(rows[:0], len(top))
	for _, i := range top {
		out = append(out, entries[i])
	}
	return out
}

// Select is eq. 6's selection, the one every Offering Table is made by — a
// shard's ranking (Rank) and a fleet gateway's merge of the shards' tables
// alike. Over a pool of n entries, at(i) the score interval and charger of
// the i-th, it appends to top, which it is handed empty, the indexes of the
// k best entries under the SC_max chain, one per charger, and returns them
// in the SC-midpoint chain, the order a table is emitted in. A charger the
// pool lists more than once holds one place, by its best entry in the
// SC_max chain.
//
// The selection is a single pass that keeps the best seen so far in order:
// with k the size of an Offering Table, nearly every entry is dismissed by
// its one comparison against the current k-th. The k kept are then put in
// the midpoint chain by insertion. Select neither allocates beyond top's
// growth nor keeps at.
func Select(top []int, n, k int, at func(i int) (interval.I, int64)) []int {
	if k <= 0 {
		return top
	}
	before := func(chain func(interval.I, int64, interval.I, int64) int, i, j int) bool {
		a, aID := at(i)
		b, bID := at(j)
		return chain(a, aID, b, bID) < 0
	}
	for i := 0; i < n; i++ {
		if len(top) == k && !before(cmpSCMax, i, top[k-1]) {
			continue
		}
		_, id := at(i)
		held := slices.IndexFunc(top, func(t int) bool { _, tID := at(t); return tID == id })
		switch {
		case held >= 0 && !before(cmpSCMax, i, top[held]):
			continue // its charger holds a place by an entry at least as good
		case held >= 0:
			top = slices.Delete(top, held, held+1)
		case len(top) == k:
			top = top[:k-1]
		}
		j := len(top)
		top = append(top, i)
		for ; j > 0 && before(cmpSCMax, i, top[j-1]); j-- {
			top[j] = top[j-1]
		}
		top[j] = i
	}
	for m := 1; m < len(top); m++ {
		i, j := top[m], m
		for ; j > 0 && before(cmpSCMid, i, top[j-1]); j-- {
			top[j] = top[j-1]
		}
		top[j] = i
	}
	return top
}

// cmpSCMax is the SC_max chain an Offering Table is selected by, best
// first: SC_max descending, then SC_min descending, then charger ID
// ascending. Ties fall through the full score interval before the ID, so
// the order is total over distinct chargers — equal-SC chargers always
// emerge in ID order and no evaluation or merge order (in particular the
// parallel filtering phase's or a fleet gateway's) can change a table.
func cmpSCMax(a interval.I, aID int64, b interval.I, bID int64) int {
	if c := cmp.Compare(b.Max, a.Max); c != 0 {
		return c
	}
	if c := cmp.Compare(b.Min, a.Min); c != 0 {
		return c
	}
	return cmp.Compare(aID, bID)
}

// cmpSCMid is the chain an Offering Table is emitted in, best first: SC
// midpoint descending, then the SC_max chain.
func cmpSCMid(a interval.I, aID int64, b interval.I, bID int64) int {
	if c := cmp.Compare(b.Mid(), a.Mid()); c != 0 {
		return c
	}
	return cmpSCMax(a, aID, b, bID)
}
