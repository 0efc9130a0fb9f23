package wire

import (
	"encoding/binary"
	"math"
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
		b = appendTravel(b, req.Travel)
	}
	return b
}

// travelTag opens a travel block after the fields of a request: the optional
// one of an offering request, each of a trip request's. routeTag opens a trip
// request's route, at most once, after the fields and before the first block.
// A request ends after its fields or goes on with one of these bytes;
// anything else is trailing garbage.
const (
	travelTag = 1
	routeTag  = 2
)

func appendTravel(b []byte, t *TravelBlock) []byte {
	b = append(b, travelTag)
	b = appendU32(b, uint32(int32(t.Anchor)))
	b = appendF64(b, t.ScaleLo)
	b = appendF64(b, t.ScaleHi)
	b = appendUvarint(b, uint64(len(t.Nodes)))
	for i, n := range t.Nodes {
		b = appendU32(b, uint32(int32(n)))
		b = appendF64(b, t.Seconds[i])
	}
	return b
}

// AppendTripRequest appends the binary form of a whole-trip request, with its
// route, if it has one, and the blocks it holds. A sender that has its blocks
// as slices appends the request without any and then each with
// AppendTripBlock.
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
		t := &req.Travel[i]
		b = appendTripBlockHead(b, t, len(t.entries)/tripEntrySize)
		b = append(b, t.entries...)
	}
	return b
}

// TripRequestSize bounds from above the encoded size of req, route included,
// which holds no blocks of its own, followed by the given number of appended
// blocks with that many entries between them, so a sender can size the
// buffer once.
func TripRequestSize(req *TripOfferingRequest, blocks, entries int) int {
	const fields, route, blockHead = 3 + 10 + 16 + 10 + 6*8, 1 + 10, 1 + 10 + 2*4 + 3*8 + 10
	return fields + 16*len(req.Waypoints) + route + 4*len(req.Route) + blocks*blockHead + entries*tripEntrySize
}

// AppendTripBlock appends one more block to a trip request: head's fields,
// and for entries nodes[i] with out[i] seconds from the anchor and back[i] to
// the return node. Blocks go in segment order.
func AppendTripBlock(b []byte, head *TripBlock, nodes []roadnet.NodeID, out, back []float64) []byte {
	b = appendTripBlockHead(b, head, len(nodes))
	for i, n := range nodes {
		b = appendU32(b, uint32(int32(n)))
		b = appendF64(b, out[i])
		b = appendF64(b, back[i])
	}
	return b
}

func appendTripBlockHead(b []byte, t *TripBlock, entries int) []byte {
	b = append(b, travelTag)
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
			b = appendF64(b, c.Timetable[d][h])
		}
	}
	return b
}

// AppendChargers appends the binary form of a charger list (the inventory
// and radius-query payloads).
func AppendChargers(b []byte, cs []charger.Charger) []byte {
	b = appendHeader(b, kindChargers)
	if cs == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendUvarint(b, uint64(len(cs)))
	for i := range cs {
		b = appendCharger(b, &cs[i])
	}
	return b
}

// AppendChargerRefs is AppendChargers over a pointer slice (the shape the
// radius query returns); the encoded bytes are identical.
func AppendChargerRefs(b []byte, cs []*charger.Charger) []byte {
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

// AppendWeather appends the binary form of a production-forecast lookup.
func AppendWeather(b []byte, resp *WeatherResponse) []byte {
	b = appendHeader(b, kindWeather)
	b = appendI64(b, resp.ChargerID)
	b = appendTime(b, resp.At)
	return appendInterval(b, resp.ProductionKW)
}

// AppendAvailability appends the binary form of an availability lookup.
func AppendAvailability(b []byte, resp *AvailabilityResponse) []byte {
	b = appendHeader(b, kindAvailability)
	b = appendI64(b, resp.ChargerID)
	b = appendTime(b, resp.At)
	return appendInterval(b, resp.Availability)
}
