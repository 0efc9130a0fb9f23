package cknn

import (
	"slices"

	"ecocharge/internal/geo"
	"ecocharge/internal/trajectory"
)

// RefineOptions tune split-point refinement.
type RefineOptions struct {
	// ResolutionM stops the bisection once the bracketing interval along
	// the trip is shorter than this. 0 selects 250 m.
	ResolutionM float64
	// MaxProbes bounds the extra Rank calls per segment pair. 0 selects 8.
	MaxProbes int
}

func (o RefineOptions) withDefaults() RefineOptions {
	if o.ResolutionM <= 0 {
		o.ResolutionM = 250
	}
	if o.MaxProbes <= 0 {
		o.MaxProbes = 8
	}
	return o
}

// RefineSplitPoints sharpens a segment-granularity split list to
// sub-segment resolution: for every pair of consecutive split points it
// bisects the trip positions between them, probing the method at
// interpolated anchors until the transition is bracketed within
// ResolutionM. The result has the same number of split points with more
// precise positions (the first point, the trip start, is exact already).
//
// This is the practical form of the exact split points SL of the CkNN
// literature (Tao et al.): between consecutive refined points the top-k
// set is constant at the probe resolution.
func RefineSplitPoints(env *Env, method Method, trip trajectory.Trip, opts TripOptions, ropts RefineOptions) []SplitPoint {
	opts = opts.withDefaults()
	ropts = ropts.withDefaults()
	coarse := SplitList(env, method, trip, opts)
	if len(coarse) <= 1 {
		return coarse
	}
	segs := trajectory.SegmentTrip(env.Graph, trip, opts.SegmentLenM)

	out := make([]SplitPoint, len(coarse))
	copy(out, coarse)
	for i := 1; i < len(coarse); i++ {
		prev, cur := coarse[i-1], coarse[i]
		// Bracket: the set changed somewhere between the previous split
		// point's segment anchor and this one's.
		loSeg := prev.SegmentIndex
		hiSeg := cur.SegmentIndex
		if hiSeg <= loSeg {
			continue
		}
		lo := segs[loSeg].Anchor
		hi := segs[hiSeg].Anchor
		loETA := segs[loSeg].ETA
		hiETA := segs[hiSeg].ETA
		want := cur.NN

		probes := 0
		for probes < ropts.MaxProbes && geo.Distance(lo, hi) > ropts.ResolutionM {
			mid := geo.Midpoint(lo, hi)
			midETA := loETA.Add(hiETA.Sub(loETA) / 2)
			node := env.Graph.NearestNode(mid)
			q := Query{
				Anchor: env.Graph.Node(node).P, AnchorNode: node, ReturnNode: node,
				Now: trip.Depart, ETABase: midETA,
				K: opts.K, RadiusM: opts.RadiusM, Weights: opts.Weights,
			}
			method.Reset() // probe without cache interference
			ids := method.Rank(q).IDs()
			if slices.Equal(ids, want) {
				hi, hiETA = mid, midETA
			} else {
				lo, loETA = mid, midETA
			}
			probes++
		}
		out[i].P = hi
		out[i].ETA = hiETA
	}
	return out
}

// TransitionDistanceM reports the along-trip distance (approximated by the
// geodesic between consecutive refined points) covered by each split
// interval. Diagnostics for the continuous query's stability.
func TransitionDistanceM(points []SplitPoint) []float64 {
	if len(points) < 2 {
		return nil
	}
	out := make([]float64, 0, len(points)-1)
	for i := 1; i < len(points); i++ {
		out = append(out, geo.Distance(points[i-1].P, points[i].P))
	}
	return out
}
