// Package cknn implements the paper's primary contribution: the Continuous
// k-Nearest-Neighbor query with Estimated Components (CkNN-EC) and the
// EcoCharge ranking framework built on it (paper §III).
//
// The pipeline per query point is exactly Algorithm 1: evaluate the three
// Estimated Components L (sustainable charging level), A (availability) and
// D (derouting cost) as intervals for every candidate charger (filtering
// phase), combine them into lower/upper Sustainability Scores with eqs. 4–5,
// intersect the two top-k rankings per eq. 6 (refinement phase), and emit a
// sorted Offering Table. Four interchangeable ranking methods mirror the
// evaluation's baselines: BruteForce, IndexQuadtree, Random and EcoCharge
// (with the dynamic R/Q cache of §IV.C).
package cknn

import (
	"fmt"
	"sort"
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

// Rank implements the refinement phase (eq. 6): it produces the top-k by
// SC_max and the top-k by SC_min, intersects them, and orders the result by
// SC midpoint (ties by higher SC_max, then lower charger ID). When the
// intersection holds fewer than k chargers it is padded from the SC_max
// ranking so the output "contains k chargers" as the paper specifies.
//
// Eq. 6 reads only the first k places of either ranking, so neither is ever
// materialised: one pass per key selects the k best under lessEntry's total
// order, as indexes into entries. The pool is neither copied nor reordered.
func Rank(entries []Entry, k int) []Entry {
	if k <= 0 || len(entries) == 0 {
		return nil
	}
	n := k
	if n > len(entries) {
		n = len(entries)
	}
	byMax := topBy(entries, n, maxKey)
	inMin := make(map[int64]bool, n)
	for _, i := range topBy(entries, n, minKey) {
		inMin[entries[i].Charger.ID] = true
	}
	out := make([]Entry, 0, n)
	seen := make(map[int64]bool, n)
	for _, i := range byMax {
		if e := &entries[i]; inMin[e.Charger.ID] {
			out = append(out, *e)
			seen[e.Charger.ID] = true
		}
	}
	// Pad from the SC_max order to reach k chargers. The first n places
	// suffice whenever charger IDs are distinct; a pool that repeats an ID
	// can use up places on chargers already taken, and then the ranking is
	// extended until the table is full or the pool is exhausted.
	for m := n; ; m *= 2 {
		for _, i := range byMax {
			if len(out) >= n {
				break
			}
			if e := &entries[i]; !seen[e.Charger.ID] {
				out = append(out, *e)
				seen[e.Charger.ID] = true
			}
		}
		if len(out) >= n || m >= len(entries) {
			break
		}
		byMax = topBy(entries, 2*m, maxKey)
	}
	sort.Slice(out, func(i, j int) bool { return lessEntry(&out[i], &out[j], midKey) })
	return out
}

// topBy returns the indexes of the n best entries under the key, best
// first: a single pass that keeps the best seen so far in order. With n the
// size of an Offering Table, nearly every entry is dismissed by its one
// comparison against the current n-th.
func topBy(entries []Entry, n int, key sortKey) []int {
	if n > len(entries) {
		n = len(entries)
	}
	top := make([]int, 0, n)
	for i := range entries {
		e := &entries[i]
		if len(top) == n {
			if !lessEntry(e, &entries[top[n-1]], key) {
				continue
			}
			top = top[:n-1]
		}
		j := len(top)
		top = append(top, i)
		for ; j > 0 && lessEntry(e, &entries[top[j-1]], key); j-- {
			top[j] = top[j-1]
		}
		top[j] = i
	}
	return top
}

type sortKey int

const (
	maxKey sortKey = iota
	minKey
	midKey
)

// lessEntry orders entries best-first under the chosen key with
// deterministic tie-breaking: ties fall through the full score interval
// (SC_max, then SC_min) before the final charger-ID comparison, so the
// order is total for every key — equal-SC chargers always emerge in ID
// order and no evaluation or merge order (in particular the parallel
// filtering phase's) can change an emitted table.
func lessEntry(a, b *Entry, key sortKey) bool {
	var av, bv float64
	switch key {
	case maxKey:
		av, bv = a.SC.Max, b.SC.Max
	case minKey:
		av, bv = a.SC.Min, b.SC.Min
	default:
		av, bv = a.SC.Mid(), b.SC.Mid()
	}
	//ecolint:ignore floateq sort comparator: tolerance would break strict weak ordering
	if av != bv {
		return av > bv
	}
	//ecolint:ignore floateq sort comparator: tolerance would break strict weak ordering
	if a.SC.Max != b.SC.Max {
		return a.SC.Max > b.SC.Max
	}
	//ecolint:ignore floateq sort comparator: tolerance would break strict weak ordering
	if a.SC.Min != b.SC.Min {
		return a.SC.Min > b.SC.Min
	}
	return a.Charger.ID < b.Charger.ID
}
