package fleet

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/eis"
	"ecocharge/internal/geo"
	"ecocharge/internal/interval"
)

// This file is the k-way Offering-Table merge. It reimplements, on wire
// entries, exactly the two orders cknn.Rank uses — selection by the SC_max
// chain, emission by the SC-midpoint chain — so that at zero faults the
// merged table over disjoint shard tables is byte-identical to a single EIS
// over the whole inventory (property 2 of the package doc), and under shard
// loss the table still satisfies tabletest's total order.

// cmpSCMax is cknn's maxKey chain on wire entries: SC_max descending, then
// SC_min descending, then charger ID ascending.
func cmpSCMax(a, b *eis.OfferingEntry) int {
	if c := cmp.Compare(b.SC.Max, a.SC.Max); c != 0 {
		return c
	}
	if c := cmp.Compare(b.SC.Min, a.SC.Min); c != 0 {
		return c
	}
	return cmp.Compare(a.ChargerID, b.ChargerID)
}

// cmpSCMid is cknn's midKey chain on wire entries: SC midpoint descending,
// then the SC_max chain.
func cmpSCMid(a, b *eis.OfferingEntry) int {
	if c := cmp.Compare((b.SC.Min+b.SC.Max)/2, (a.SC.Min+a.SC.Max)/2); c != 0 {
		return c
	}
	return cmpSCMax(a, b)
}

// shardDegraded reports a synthesized entry (its shard did not answer).
func shardDegraded(e *eis.OfferingEntry) bool {
	return e.Degraded&uint8(cknn.DegradedShard) != 0
}

// cmpByID groups the entries of one charger, live ones (no shard bit) first.
func cmpByID(a, b *eis.OfferingEntry) int {
	if c := cmp.Compare(a.ChargerID, b.ChargerID); c != 0 {
		return c
	}
	switch da, db := shardDegraded(a), shardDegraded(b); {
	case da == db:
		return 0
	case db:
		return -1
	default:
		return 1
	}
}

// selection picks an Offering Table out of per-shard entry lists without
// copying them: it sorts references to the pooled entries and copies only
// the k it emits. Its storage is reused from call to call.
type selection struct {
	refs []*eis.OfferingEntry
}

func (s *selection) reset() { s.refs = s.refs[:0] }

// add pools the entries; they must stay in place until top has returned.
func (s *selection) add(es []eis.OfferingEntry) {
	for i := range es {
		s.refs = append(s.refs, &es[i])
	}
}

// top appends to dst the k best pooled entries under the SC_max chain, in
// the SC-midpoint chain, and returns nil when there is none. Shard
// partitions are disjoint, but a stale inventory after a repartition could
// collide a synthesized entry with a live one: of the entries of one
// charger the first live one (no shard bit) stands for it, the first one
// when none is live.
func (s *selection) top(dst []eis.OfferingEntry, k int) []eis.OfferingEntry {
	if k <= 0 || len(s.refs) == 0 {
		return nil
	}
	// Stable, so the earliest of equals leads its charger's group.
	slices.SortStableFunc(s.refs, cmpByID)
	refs := s.refs[:1]
	for _, e := range s.refs[1:] {
		if e.ChargerID != refs[len(refs)-1].ChargerID {
			refs = append(refs, e)
		}
	}
	// Charger IDs are now distinct, so both chains are total orders and the
	// unstable sort is deterministic.
	slices.SortFunc(refs, cmpSCMax)
	if k < len(refs) {
		refs = refs[:k]
	}
	slices.SortFunc(refs, cmpSCMid)
	dst = slices.Grow(dst, len(refs))
	for _, e := range refs {
		dst = append(dst, *e)
	}
	return dst
}

// ignoranceWire is the wire form of the [0,1] ignorance bound.
func ignoranceWire() eis.IntervalJSON { return eis.IntervalJSON{Min: 0, Max: 1} }

// synthEntry builds the entry the gateway offers for a charger whose shard
// did not answer: every component at the ignorance bound, SC through the
// real scoring path, the full DegradedAll mask, and a zero ETA (the
// synthesis reads no travel time, not even one a search the gateway ran for
// the request found, so "unknown" is the honest value).
func synthEntry(c charger.Charger, w cknn.Weights) eis.OfferingEntry {
	ig := interval.New(0, 1)
	sc := cknn.Components{L: ig, A: ig, D: ig}.SC(w)
	return eis.OfferingEntry{
		ChargerID: c.ID,
		Lat:       c.P.Lat,
		Lon:       c.P.Lon,
		RateKW:    c.Rate.KW(),
		SC:        eis.IntervalJSON{Min: sc.Min, Max: sc.Max},
		L:         ignoranceWire(),
		A:         ignoranceWire(),
		D:         ignoranceWire(),
		Degraded:  uint8(cknn.DegradedAll),
	}
}

// synthWithin synthesizes ignorance-bound entries for the inventory
// chargers within the query radius, using the same predicate as the shards'
// spatial index (geodesic distance, inclusive bound).
func synthWithin(inv []charger.Charger, p geo.Point, radiusM float64, w cknn.Weights) []eis.OfferingEntry {
	var out []eis.OfferingEntry
	for _, c := range inv {
		if geo.Distance(p, c.P) <= radiusM {
			out = append(out, synthEntry(c, w))
		}
	}
	return out
}

// mergeOffering combines the decoded tables of the shards that answered (in
// shard-index order) and the synthesized entries of the dead shards into
// fo.merged. Cached is the conjunction of the live flags — the merged table
// is "cached" only if every contributing shard served from its cache;
// GeneratedAt comes from the lowest-index live shard (all shards agree when
// the request pins Now).
func (fo *fanout) mergeOffering(synth []eis.OfferingEntry, k int) {
	fo.merged = eis.OfferingResponse{}
	fo.sel.reset()
	first := true
	for i := range fo.results {
		if !fo.results[i].ok() {
			continue
		}
		t := &fo.tables[i]
		if first {
			fo.merged.GeneratedAt, fo.merged.Cached, first = t.GeneratedAt, true, false
		}
		fo.merged.Cached = fo.merged.Cached && t.Cached
		fo.sel.add(t.Entries)
	}
	fo.sel.add(synth)
	if fo.merged.Entries = fo.sel.top(fo.top[:0], k); fo.merged.Entries != nil {
		fo.top = fo.merged.Entries // keep the grown storage
	}
}

// sameInstant reports whether two timestamps render the same on the wire:
// the same instant under the same zone offset.
func sameInstant(a, b time.Time) bool {
	_, ao := a.Zone()
	_, bo := b.Zone()
	return a.Equal(b) && ao == bo
}

// sameSkeleton reports whether two shards' answers for one segment describe
// the same segment — index, anchor, ETA and length, bit for bit: every shard
// routes and partitions the trip over the same road graph, so anything else
// is an answer for another trip.
func sameSkeleton(a, b *eis.SegmentOffering) bool {
	return a.SegmentIndex == b.SegmentIndex &&
		math.Float64bits(a.Anchor.Lat) == math.Float64bits(b.Anchor.Lat) &&
		math.Float64bits(a.Anchor.Lon) == math.Float64bits(b.Anchor.Lon) &&
		math.Float64bits(a.LengthM) == math.Float64bits(b.LengthM) &&
		sameInstant(a.ETA, b.ETA)
}

// mergeTrips combines the decoded trip evaluations of the shards that
// answered (fo.trips, in shard-index order) into fo.tripMerged, selecting
// every segment's table over references into the shards' entries as
// mergeOffering does. All shards share the road graph, so the segment
// skeletons (index, anchor, ETA, length) and the trip's length must agree; a
// mismatch means a shard answered for a different trip and is a merge error,
// not something to paper over. synthAt, when non-nil, supplies the dead
// shards' entries for a segment anchor. SplitPoints are recomputed from the
// merged tables with the server's own change-point rule.
func (fo *fanout) mergeTrips(synthAt func(anchor geo.Point) []eis.OfferingEntry, k int) error {
	var base *eis.TripOfferingResponse
	for i := range fo.results {
		if !fo.results[i].ok() {
			continue
		}
		r := &fo.trips[i]
		switch {
		case base == nil:
			base = r
		case len(r.Segments) != len(base.Segments):
			return fmt.Errorf("fleet: shard trip skeletons disagree: %d vs %d segments", len(base.Segments), len(r.Segments))
		case math.Float64bits(r.TripLengthM) != math.Float64bits(base.TripLengthM):
			return fmt.Errorf("fleet: shard trip skeletons disagree on the trip's length (%v vs %v m)", base.TripLengthM, r.TripLengthM)
		}
	}
	if base == nil {
		return fmt.Errorf("fleet: no live shard response to merge")
	}
	out := &fo.tripMerged
	out.TripLengthM = base.TripLengthM
	out.Segments, out.SplitPoints = out.Segments[:0], out.SplitPoints[:0]
	if len(base.Segments) == 0 {
		// As a shard's own: no segments and no split points render null.
		out.Segments, out.SplitPoints = nil, nil
	}
	top := fo.top[:0]
	var prev []eis.OfferingEntry
	for si := range base.Segments {
		bs := &base.Segments[si]
		seg := eis.SegmentOffering{
			SegmentIndex: bs.SegmentIndex,
			Anchor:       bs.Anchor,
			ETA:          bs.ETA,
			LengthM:      bs.LengthM,
			Adapted:      true,
		}
		fo.sel.reset()
		for i := range fo.results {
			if !fo.results[i].ok() {
				continue
			}
			s := &fo.trips[i].Segments[si]
			if !sameSkeleton(s, bs) {
				return fmt.Errorf("fleet: segment %d: shard skeletons disagree (segment %d at (%v, %v), %v, %v m vs segment %d at (%v, %v), %v, %v m)", si,
					bs.SegmentIndex, bs.Anchor.Lat, bs.Anchor.Lon, bs.ETA, bs.LengthM, s.SegmentIndex, s.Anchor.Lat, s.Anchor.Lon, s.ETA, s.LengthM)
			}
			seg.Adapted = seg.Adapted && s.Adapted
			fo.sel.add(s.Entries)
		}
		if synthAt != nil {
			fo.sel.add(synthAt(geo.Point{Lat: bs.Anchor.Lat, Lon: bs.Anchor.Lon}))
		}
		// The tables of a trip share fo.top; one that outgrows it leaves the
		// tables before it in the storage they were selected into.
		if grown := fo.sel.top(top, k); grown != nil {
			seg.Entries, top = grown[len(top):len(grown):len(grown)], grown
		}
		if si == 0 || !slices.EqualFunc(prev, seg.Entries, sameCharger) {
			out.SplitPoints = append(out.SplitPoints, seg.SegmentIndex)
			prev = seg.Entries
		}
		out.Segments = append(out.Segments, seg)
	}
	fo.top = top[:0]
	return nil
}

func sameCharger(a, b eis.OfferingEntry) bool { return a.ChargerID == b.ChargerID }

// mergeChargers pools per-shard radius results (plus dead-shard inventory
// matches) into the single-EIS order: geodesic distance ascending, ties by
// charger ID.
func mergeChargers(lists [][]charger.Charger, p geo.Point) []charger.Charger {
	out := make([]charger.Charger, 0)
	for _, l := range lists {
		out = append(out, l...)
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := geo.Distance(p, out[i].P), geo.Distance(p, out[j].P)
		//ecolint:ignore floateq sort comparator: tolerance would break strict weak ordering
		if di != dj {
			return di < dj
		}
		return out[i].ID < out[j].ID
	})
	return out
}
