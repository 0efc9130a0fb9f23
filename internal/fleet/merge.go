package fleet

import (
	"fmt"
	"math"
	"slices"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/eis"
	"ecocharge/internal/geo"
	"ecocharge/internal/interval"
)

// This file is the k-way Offering-Table merge. It selects on wire entries
// with cknn.Select, the selection a shard's own ranking makes its table by,
// so that at zero faults the merged table over disjoint shard tables is
// byte-identical to a single EIS over the whole inventory (property 2 of the
// package doc), and under shard loss the table still satisfies tabletest's
// total order.

// shardDegraded reports a synthesized entry (its shard did not answer).
func shardDegraded(e *eis.OfferingEntry) bool {
	return e.Degraded&uint8(cknn.DegradedShard) != 0
}

// add pools references to the entries, which must stay in place until pick
// has returned. A selection's pool starts empty: fo.refs = fo.refs[:0].
func (fo *fanout) add(es []eis.OfferingEntry) {
	for i := range es {
		fo.refs = append(fo.refs, &es[i])
	}
}

// pick appends to dst the Offering Table of the pooled entries — the k best
// under cknn.Select, one per charger, copied in the order it emits them —
// and returns nil when there is none. Shard partitions are disjoint and the
// gateway refuses an entry of another shard's partition (checkEntries), so a
// charger meets itself only within one answer, and then its best entry
// stands for it, as in the shard's own ranking.
func (fo *fanout) pick(dst []eis.OfferingEntry, k int) []eis.OfferingEntry {
	refs := fo.refs
	// The wire bounds are the score interval as a shard ranked by it, so
	// they convert as they are.
	fo.picks = cknn.Select(fo.picks[:0], len(refs), k, func(i int) (interval.I, int64) {
		return interval.I(refs[i].SC), refs[i].ChargerID
	})
	if len(fo.picks) == 0 {
		return nil
	}
	dst = slices.Grow(dst, len(fo.picks))
	for _, i := range fo.picks {
		dst = append(dst, *refs[i])
	}
	return dst
}

// checkEntries refuses the entries shard answered with that hold a crossed
// (or NaN) interval — the merge reads the bounds as they arrived, and
// interval.FromBounds would reorder them, or panic on a NaN — or that rank a
// charger part gives another shard: a shard started on another partition
// than its index names would otherwise have its table merged in place of
// its own partition's, which no shard then ranks.
func checkEntries(entries []eis.OfferingEntry, part Partition, shard int) error {
	for i, e := range entries {
		for _, iv := range [...]eis.IntervalJSON{e.SC, e.L, e.A, e.D} {
			if !interval.I(iv).Valid() {
				return fmt.Errorf("entry %d (charger %d) holds the crossed interval [%v, %v]", i, e.ChargerID, iv.Min, iv.Max)
			}
		}
		if owner := part.ShardOf(e.ChargerID); owner != shard {
			return fmt.Errorf("entry %d (charger %d) belongs to shard %d", i, e.ChargerID, owner)
		}
	}
	return nil
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

// synthWithin appends to dst the ignorance-bound entries of a dead shard's
// chargers within radiusM of p.
func synthWithin(dst []eis.OfferingEntry, chargers *charger.Set, p geo.Point, radiusM float64, w cknn.Weights) []eis.OfferingEntry {
	for _, c := range chargers.Within(p, radiusM) {
		dst = append(dst, synthEntry(*c, w))
	}
	return dst
}

// mergeOffering combines the decoded tables of the shards that answered (in
// shard-index order) and the synthesized entries of the dead shards into
// fo.merged. Cached is the conjunction of the live flags — the merged table
// is "cached" only if every contributing shard served from its cache;
// GeneratedAt comes from the lowest-index live shard (all shards agree when
// the request pins Now).
func (fo *fanout) mergeOffering(synth []eis.OfferingEntry, k int) {
	fo.merged, fo.refs = eis.OfferingResponse{}, fo.refs[:0]
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
		fo.add(t.Entries)
	}
	fo.add(synth)
	if fo.merged.Entries = fo.pick(fo.top[:0], k); fo.merged.Entries != nil {
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
// merged tables with the server's own change-point rule
// (eis.AppendSplitPoints).
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
	for si := range base.Segments {
		bs := &base.Segments[si]
		seg := eis.SegmentOffering{
			SegmentIndex: bs.SegmentIndex,
			Anchor:       bs.Anchor,
			ETA:          bs.ETA,
			LengthM:      bs.LengthM,
			Adapted:      true,
		}
		fo.refs = fo.refs[:0]
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
			fo.add(s.Entries)
		}
		if synthAt != nil {
			fo.add(synthAt(geo.Point{Lat: bs.Anchor.Lat, Lon: bs.Anchor.Lon}))
		}
		// The tables of a trip share fo.top; one that outgrows it leaves the
		// tables before it in the storage they were selected into.
		if grown := fo.pick(top, k); grown != nil {
			seg.Entries, top = grown[len(top):len(grown):len(grown)], grown
		}
		out.Segments = append(out.Segments, seg)
	}
	out.SplitPoints = eis.AppendSplitPoints(out.SplitPoints, out.Segments)
	fo.top = top[:0]
	return nil
}
