package cknn

import (
	"slices"
	"time"

	"ecocharge/internal/geo"
	"ecocharge/internal/trajectory"
)

// TripOptions configure a continuous evaluation over a scheduled trip.
type TripOptions struct {
	// K chargers per Offering Table. 0 selects 3.
	K int
	// SegmentLenM is the trip partition length (paper: ≈3–5 km). 0
	// selects 4 km.
	SegmentLenM float64
	// RadiusM is the search radius R. 0 selects 50 km.
	RadiusM float64
	// Weights of the SC objectives; zero value selects equal weights.
	Weights Weights
	// Workers is not read.
	//
	// Deprecated: ignored — a trip is evaluated segment by segment on the
	// caller's goroutine. Its one setter is bench/replay.go, which a PR that
	// is not the benchmark's own may not edit; it goes with ROADMAP item 2's
	// benchmark PR.
	Workers int
}

func (o TripOptions) withDefaults() TripOptions {
	if o.K <= 0 {
		o.K = 3
	}
	if o.SegmentLenM <= 0 {
		o.SegmentLenM = 4000
	}
	if o.RadiusM <= 0 {
		o.RadiusM = 50000
	}
	return o
}

// SegmentResult pairs a trip segment with its Offering Table.
type SegmentResult struct {
	Segment trajectory.Segment
	Table   OfferingTable
}

// QueryForSegment builds the CkNN-EC query of one trip segment: the anchor
// is the segment's representative point, the return node is the segment's
// end (the vehicle rejoins its route there after a charging detour), and
// all forecasts are issued at the trip's departure — so estimate horizons
// grow along the trip, exactly the regime that makes the components
// "estimated".
func QueryForSegment(trip trajectory.Trip, seg trajectory.Segment, opts TripOptions) Query {
	opts = opts.withDefaults()
	end := seg.Nodes[len(seg.Nodes)-1]
	return Query{
		Anchor:     seg.Anchor,
		AnchorNode: seg.AnchorNode,
		ReturnNode: end,
		Now:        trip.Depart,
		ETABase:    seg.ETA,
		K:          opts.K,
		RadiusM:    opts.RadiusM,
		Weights:    opts.Weights,
	}
}

// RunTrip evaluates the method over every segment of the trip in travel order
// (the continuous CkNN-EC evaluation of §III.A), resetting the method's
// per-trip state first. The i-th result corresponds to segment i.
func RunTrip(env *Env, method Method, trip trajectory.Trip, opts TripOptions) []SegmentResult {
	opts = opts.withDefaults()
	method.Reset()
	segs := trajectory.SegmentTrip(env.Graph, trip, opts.SegmentLenM)
	out := make([]SegmentResult, len(segs))
	for i, seg := range segs {
		q := QueryForSegment(trip, seg, opts)
		out[i] = SegmentResult{Segment: seg, Table: method.Rank(q)}
	}
	return out
}

// reuses is the distance half of the dynamic cache's rule (§IV.C): a table
// generated at from is adapted for a query at to while the anchor moved at
// most Q. EcoCharge.adaptable adds the table's age and that it has entries.
func (o EcoChargeOptions) reuses(from, to geo.Point) bool {
	return geo.Distance(to, from) <= o.withDefaults().ReuseDistM
}

// ComputedSegments returns the indexes of the segments a RunTrip of EcoCharge
// under opts computes rather than adapts, assuming no computed table comes
// out empty. Every segment of a trip is issued at the trip's departure, so no
// table ages along it and the cache's decision is the anchors' and Q's alone.
// After an empty table the run computes the next segment whatever its anchor,
// and adapts from there on: it may then compute segments that are not listed
// and adapt listed ones.
func ComputedSegments(segs []trajectory.Segment, opts EcoChargeOptions) []int {
	var out []int
	for i := range segs {
		if len(out) == 0 || !opts.reuses(segs[out[len(out)-1]].Anchor, segs[i].Anchor) {
			out = append(out, i)
		}
	}
	return out
}

// SegmentTravel is the network search of one trip segment's query
// (QueryForSegment), run elsewhere.
type SegmentTravel struct {
	Segment int
	Travel
}

// RunTripSupplied is RunTrip of EcoCharge for a caller that was handed the
// network searches of the segments somebody expected it to compute (a fleet
// shard, by its gateway; ComputedSegments is the expectation): travel, in
// segment order. A segment the run computes is ranked on its travel times
// when it has some that stand in for its search (suppliedDerouting says when
// they do not) and searches for itself otherwise; the results are RunTrip's
// either way. used counts the searches that were built on: the others were
// refused, name no segment of the trip or not in order, or came for a segment
// the dynamic cache adapted.
func RunTripSupplied(env *Env, m *EcoCharge, trip trajectory.Trip, opts TripOptions, travel []SegmentTravel) (out []SegmentResult, used int) {
	opts = opts.withDefaults()
	m.Reset()
	segs := trajectory.SegmentTrip(env.Graph, trip, opts.SegmentLenM)
	out = make([]SegmentResult, len(segs))
	for i, seg := range segs {
		for len(travel) > 0 && travel[0].Segment < i {
			travel = travel[1:]
		}
		var t *Travel
		if len(travel) > 0 && travel[0].Segment == i {
			t, travel = &travel[0].Travel, travel[1:]
		}
		table, built := m.rank(QueryForSegment(trip, seg, opts), t)
		if built {
			used++
		}
		out[i] = SegmentResult{Segment: seg, Table: table}
	}
	return out, used
}

// SplitPoint marks a position on the trip where the kNN result set changes:
// from this point until the next split point, NN is the valid charger set
// (the SL structure of Tao et al. that the paper builds on).
type SplitPoint struct {
	P            geo.Point
	SegmentIndex int
	ETA          time.Time
	NN           []int64 // ranked charger IDs valid from this point on
}

// SplitList computes the split points of a trip from its per-segment
// Offering Tables, as RunTrip returned them: it records every point where the
// ranked top-k set differs from the previous segment's. The first split
// point is the trip start. Between recorded points the result set is
// constant at segment granularity (the paper's SL is maintained per
// processed split).
func SplitList(results []SegmentResult) []SplitPoint {
	var out []SplitPoint
	var prev []int64
	for _, r := range results {
		ids := r.Table.IDs()
		if len(out) == 0 || !slices.Equal(prev, ids) {
			out = append(out, SplitPoint{
				P:            r.Segment.Start,
				SegmentIndex: r.Segment.Index,
				ETA:          r.Segment.ETA,
				NN:           ids,
			})
			prev = ids
		}
	}
	return out
}
