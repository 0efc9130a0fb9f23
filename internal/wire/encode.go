package wire

import (
	"encoding/binary"
	"math"
	"slices"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/roadnet"
)

// Append-style encoders: every function appends one message (or one field)
// to b and returns the grown slice, so callers encode into pooled buffers
// with zero steady-state allocations. No reflection anywhere — each struct
// is written field by field in declaration order.

func appendHeader(b []byte, kind byte) []byte {
	return append(b, magic, version, kind)
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

func appendI64(b []byte, v int64) []byte {
	return appendU64(b, uint64(v))
}

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// appendVarint zigzag-encodes a signed integer so small magnitudes of
// either sign stay short.
func appendVarint(b []byte, v int64) []byte {
	uv := uint64(v) << 1
	if v < 0 {
		uv = ^uv
	}
	return appendUvarint(b, uv)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendTime encodes the wall clock as seconds + nanoseconds + zone offset
// (16 bytes). Carrying the offset — not just an instant — makes the decoded
// time render the same RFC 3339 string the original did, which is what the
// JSON-equivalence contract needs; the monotonic reading is dropped exactly
// like encoding/json drops it.
func appendTime(b []byte, t time.Time) []byte {
	_, off := t.Zone()
	b = appendI64(b, t.Unix())
	b = appendU32(b, uint32(t.Nanosecond()))
	return appendU32(b, uint32(int32(off)))
}

func appendInterval(b []byte, iv IntervalJSON) []byte {
	b = appendF64(b, iv.Min)
	return appendF64(b, iv.Max)
}

// AppendOfferingRequest appends the binary form of a Mode 2 request.
func AppendOfferingRequest(b []byte, req *OfferingRequest) []byte {
	b = appendHeader(b, kindOfferingRequest)
	b = appendF64(b, req.Lat)
	b = appendF64(b, req.Lon)
	b = appendVarint(b, int64(req.K))
	b = appendF64(b, req.RadiusM)
	b = appendF64(b, req.Weights.L)
	b = appendF64(b, req.Weights.A)
	b = appendF64(b, req.Weights.D)
	b = appendTime(b, req.Now)
	b = appendTime(b, req.ETA)
	if req.Travel != nil {
		b = appendBlock(b, req.Travel)
	}
	return b
}

// travelTag opens a travel block after the fields of a request: the optional
// one of an offering request, each of a trip request's. routeTag opens a trip
// request's route, at most once, after the fields and before the first block.
// A request ends after its fields or goes on with one of these bytes;
// anything else is trailing garbage.
//
// A block is, in order: travelTag; its legs, 1 or 2, in one byte; World as
// an 8-byte integer; Segment as a uvarint; Anchor and Return as 4-byte node IDs; ScaleLo, ScaleHi and
// Base as 8-byte floats; the number of entries as a uvarint; and the
// entries, each a 4-byte node and its 8-byte time out, followed on a
// two-leg block by its 8-byte time back: 12 or 20 bytes an entry.
const (
	travelTag = 1
	routeTag  = 2
)

// AppendTripRequest appends the binary form of a whole-trip request, with its
// route, if it has one, and the blocks it holds. A sender that has its blocks
// as slices appends the request without any and then each with
// AppendTravelBlock.
func AppendTripRequest(b []byte, req *TripOfferingRequest) []byte {
	b = appendHeader(b, kindTripRequest)
	b = appendUvarint(b, uint64(len(req.Waypoints)))
	for _, wp := range req.Waypoints {
		b = appendF64(b, wp.Lat)
		b = appendF64(b, wp.Lon)
	}
	b = appendTime(b, req.Depart)
	b = appendVarint(b, int64(req.K))
	b = appendF64(b, req.RadiusM)
	b = appendF64(b, req.ReuseDistM)
	b = appendF64(b, req.SegmentLenM)
	b = appendF64(b, req.Weights.L)
	b = appendF64(b, req.Weights.A)
	b = appendF64(b, req.Weights.D)
	if req.Route != nil {
		b = append(b, routeTag)
		b = appendUvarint(b, uint64(len(req.Route)))
		for _, n := range req.Route {
			b = appendU32(b, uint32(int32(n)))
		}
	}
	for i := range req.Travel {
		b = appendBlock(b, &req.Travel[i])
	}
	return b
}

// TravelBlockSize bounds from above what AppendTravelBlock appends for a
// block of that many entries, on two legs or on one, so that a sender can
// size a request's buffer once.
func TravelBlockSize(entries int, twoLegs bool) int {
	const head = 1 + 1 + 8 + 10 + 2*4 + 3*8 + 10
	if twoLegs {
		return head + entries*twoLegEntrySize
	}
	return head + entries*oneLegEntrySize
}

// AppendTravelBlock appends one more block to a request — the offering's
// one, or a trip's next, in segment order: head's fields, and for entries
// nodes[i] with out[i] seconds from the anchor and, on a two-leg block,
// back[i] to the return node. A one-leg block reads no back.
func AppendTravelBlock(b []byte, head *TravelBlock, nodes []roadnet.NodeID, out, back []float64) []byte {
	b = appendTravelHead(b, head, len(nodes))
	for i, n := range nodes {
		b = appendU32(b, uint32(int32(n)))
		b = appendF64(b, out[i])
		if head.TwoLegs {
			b = appendF64(b, back[i])
		}
	}
	return b
}

// appendBlock appends a decoded block as it came.
func appendBlock(b []byte, t *TravelBlock) []byte {
	b = appendTravelHead(b, t, len(t.entries)/t.entrySize())
	return append(b, t.entries...)
}

func appendTravelHead(b []byte, t *TravelBlock, entries int) []byte {
	legs := byte(1)
	if t.TwoLegs {
		legs = 2
	}
	b = append(b, travelTag, legs)
	b = appendU64(b, t.World)
	b = appendUvarint(b, uint64(t.Segment))
	b = appendU32(b, uint32(int32(t.Anchor)))
	b = appendU32(b, uint32(int32(t.Return)))
	b = appendF64(b, t.ScaleLo)
	b = appendF64(b, t.ScaleHi)
	b = appendF64(b, t.Base)
	return appendUvarint(b, uint64(entries))
}

func appendEntry(b []byte, e *OfferingEntry) []byte {
	b = appendI64(b, e.ChargerID)
	b = appendF64(b, e.Lat)
	b = appendF64(b, e.Lon)
	b = appendF64(b, e.RateKW)
	b = appendInterval(b, e.SC)
	b = appendInterval(b, e.L)
	b = appendInterval(b, e.A)
	b = appendInterval(b, e.D)
	b = appendTime(b, e.ETA)
	return append(b, e.Degraded)
}

// appendEntries appends one table's entries. A nil slice is distinguished
// from an empty one so the re-encoded JSON stays byte-identical
// ("entries":null vs []).
func appendEntries(b []byte, es []OfferingEntry) []byte {
	if es == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendUvarint(b, uint64(len(es)))
	for i := range es {
		b = appendEntry(b, &es[i])
	}
	return b
}

// AppendOfferingResponse appends the binary form of a Mode 2 response.
func AppendOfferingResponse(b []byte, resp *OfferingResponse) []byte {
	b = appendHeader(b, kindOfferingResponse)
	b = appendEntries(b, resp.Entries)
	b = appendTime(b, resp.GeneratedAt)
	return appendBool(b, resp.Cached)
}

// AppendTripResponse appends the binary form of a whole-trip response:
// every segment with its table, then the split points. Nil slices stay
// apart from empty ones at every level, as in AppendOfferingResponse.
func AppendTripResponse(b []byte, resp *TripOfferingResponse) []byte {
	b = appendHeader(b, kindTripResponse)
	b = appendF64(b, resp.TripLengthM)
	if resp.Segments == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = appendUvarint(b, uint64(len(resp.Segments)))
		for i := range resp.Segments {
			seg := &resp.Segments[i]
			b = appendVarint(b, int64(seg.SegmentIndex))
			b = appendF64(b, seg.Anchor.Lat)
			b = appendF64(b, seg.Anchor.Lon)
			b = appendTime(b, seg.ETA)
			b = appendF64(b, seg.LengthM)
			b = appendBool(b, seg.Adapted)
			b = appendEntries(b, seg.Entries)
		}
	}
	if resp.SplitPoints == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendUvarint(b, uint64(len(resp.SplitPoints)))
	for _, sp := range resp.SplitPoints {
		b = appendVarint(b, int64(sp))
	}
	return b
}

func appendCharger(b []byte, c *charger.Charger) []byte {
	b = appendI64(b, c.ID)
	b = appendF64(b, c.P.Lat)
	b = appendF64(b, c.P.Lon)
	b = appendU32(b, uint32(int32(c.Node)))
	// The rate travels as nominal kW and decodes through the same
	// nearest-class recovery the JSON codec uses, so both formats project
	// identically.
	b = appendF64(b, c.Rate.KW())
	b = appendF64(b, c.PanelKW)
	b = appendF64(b, c.WindKW)
	b = appendVarint(b, int64(c.Plugs))
	for d := 0; d < 7; d++ {
		for h := 0; h < 24; h++ {
			b = appendF64(b, c.Timetable.Slot(d, h))
		}
	}
	return b
}

// chargersHeadSize bounds a charger list's header, presence byte and count.
const chargersHeadSize = 3 + 1 + binary.MaxVarintLen64

// AppendChargerRefs appends the binary form of a charger list (the radius
// query's answer, in the shape Set.Within returns it).
func AppendChargerRefs(b []byte, cs []*charger.Charger) []byte {
	b = slices.Grow(b, chargersHeadSize+len(cs)*minChargerSize)
	b = appendHeader(b, kindChargers)
	if cs == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendUvarint(b, uint64(len(cs)))
	for _, c := range cs {
		b = appendCharger(b, c)
	}
	return b
}
