package wire

import (
	"encoding/binary"
	"math"
	"time"

	"ecocharge/internal/interval"
	"ecocharge/internal/roadnet"
)

// This file holds the wire types of the EIS API. They moved here from
// internal/eis so the binary codec below them and the fleet gateway's merge
// can share one definition without an import cycle; internal/eis aliases
// them back (eis.OfferingResponse = wire.OfferingResponse), so the HTTP
// surface and every existing caller are unchanged. The JSON tags are the
// canonical wire contract; the binary codec encodes exactly these structs.

// IntervalJSON is the wire form of an interval estimate.
type IntervalJSON struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// ToWire converts an interval estimate to its wire form.
func ToWire(i interval.I) IntervalJSON { return IntervalJSON{Min: i.Min, Max: i.Max} }

// Interval converts the wire form back to an interval estimate.
func (i IntervalJSON) Interval() interval.I { return interval.FromBounds(i.Min, i.Max) }

// WeightsJSON is the wire form of the SC weights.
type WeightsJSON struct {
	L float64 `json:"l"`
	A float64 `json:"a"`
	D float64 `json:"d"`
}

// OfferingRequest asks the EIS for an Offering Table (Mode 2).
type OfferingRequest struct {
	Lat     float64     `json:"lat"`
	Lon     float64     `json:"lon"`
	K       int         `json:"k"`
	RadiusM float64     `json:"radius_m"`
	Weights WeightsJSON `json:"weights"`
	// Now is when the estimate is issued; zero means server time.
	Now time.Time `json:"now"`
	// ETA is the arrival time at the query point; zero means Now.
	ETA time.Time `json:"eta"`
	// Travel is the ranking's network search, when the sender ran it for the
	// receiver: a fleet gateway's word to a shard, one leg, read in the bytes
	// it was decoded from. It exists on the binary plane only, and a server
	// that cannot use it searches for itself.
	Travel *TravelBlock `json:"-"`
}

// LatLon is a wire waypoint.
type LatLon struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// TripOfferingRequest asks the EIS to evaluate a whole scheduled trip: the
// waypoints are snapped to the road network, routed with shortest paths,
// partitioned into segments, and each segment gets an Offering Table — the
// full Mode 2 form of the continuous CkNN-EC query.
type TripOfferingRequest struct {
	Waypoints []LatLon  `json:"waypoints"`
	Depart    time.Time `json:"depart"`
	K         int       `json:"k"`
	RadiusM   float64   `json:"radius_m"`
	// ReuseDistM is the dynamic-cache Q used across the trip's segments.
	ReuseDistM  float64     `json:"reuse_dist_m"`
	SegmentLenM float64     `json:"segment_len_m"`
	Weights     WeightsJSON `json:"weights"`
	// Route is the trip's road route — the snapped waypoints joined by their
	// shortest paths, node by node — when the sender routed it for the
	// receiver: a fleet gateway's word to a shard, like Travel, on the binary
	// plane only. The receiver checks it against its own snaps and graph
	// before it follows it (eis.TripOffering.Follow).
	Route []roadnet.NodeID `json:"-"`
	// Travel are the network searches of the segments the sender expects the
	// receiver to compute, when it ran them for it, in segment order: a fleet
	// gateway's word to a shard, like OfferingRequest.Travel, on the binary
	// plane only.
	Travel []TravelBlock `json:"-"`
}

// TravelBlock carries the raw travel times of one network search to the
// receiver's chargers: the search of an offering's ranking, or of one trip
// segment's (Segment is its index). World is the road world the search ran
// in (cknn.Env.RoadWorld), which a receiver in another world refuses the
// block by. Anchor is the node the search started
// from, Return the node its return leg ended at and Base the time from the
// one to the other (the on-route baseline), and ScaleLo ≤ 1 ≤ ScaleHi turn a
// raw time into its lower and upper bound. A trip segment's search has two
// legs: every entry holds a node, the time to it from Anchor and the time
// from it to Return. An offering's ranking returns to its anchor over a
// symmetric graph, and its search has one leg (TwoLegs false): an entry holds
// a node and the time to it, which is the time back as well; Return is then
// Anchor and Base 0. A time is +Inf where a leg ended without reaching the
// node.
//
// The entries of a decoded block stay in the bytes of the message they were
// decoded from and are read in place (At): a block lives as long as those
// do. A sender appends a block's entries from slices (AppendTravelBlock).
type TravelBlock struct {
	World            uint64
	Segment          int
	Anchor, Return   roadnet.NodeID
	ScaleLo, ScaleHi float64
	Base             float64
	TwoLegs          bool
	entries          []byte
}

// Encoded entry sizes: node and out; node, out and back.
const (
	oneLegEntrySize = 4 + 8
	twoLegEntrySize = 4 + 8 + 8
)

func (b *TravelBlock) entrySize() int {
	if b.TwoLegs {
		return twoLegEntrySize
	}
	return oneLegEntrySize
}

// Len is the number of nodes the block prices: its entries and the return
// node.
func (b *TravelBlock) Len() int { return len(b.entries)/b.entrySize() + 1 }

// At returns the i-th node with its times from the anchor and to the return
// node; the return node, at Base from the anchor, comes last.
func (b *TravelBlock) At(i int) (n roadnet.NodeID, out, back float64) {
	size := b.entrySize()
	if i == len(b.entries)/size {
		return b.Return, b.Base, 0
	}
	e := b.entries[i*size:][:size]
	n = roadnet.NodeID(int32(binary.LittleEndian.Uint32(e)))
	out = math.Float64frombits(binary.LittleEndian.Uint64(e[4:]))
	if !b.TwoLegs {
		return n, out, out
	}
	return n, out, math.Float64frombits(binary.LittleEndian.Uint64(e[12:]))
}

// OfferingEntry is one ranked charger of the response.
type OfferingEntry struct {
	ChargerID int64        `json:"charger_id"`
	Lat       float64      `json:"lat"`
	Lon       float64      `json:"lon"`
	RateKW    float64      `json:"rate_kw"`
	SC        IntervalJSON `json:"sc"`
	L         IntervalJSON `json:"l"`
	A         IntervalJSON `json:"a"`
	D         IntervalJSON `json:"d"`
	ETA       time.Time    `json:"eta"`
	// Degraded is the cknn.Degraded bitmask of the entry: bit 0 = L,
	// bit 1 = A, bit 2 = D. A set bit means that component's backing source
	// failed and the interval above is the [0,1] ignorance bound, not an
	// estimate. Omitted (0) when every component was estimated.
	Degraded uint8 `json:"degraded,omitempty"`
}

// OfferingResponse is the Mode 2 result.
type OfferingResponse struct {
	Entries     []OfferingEntry `json:"entries"`
	GeneratedAt time.Time       `json:"generated_at"`
	Cached      bool            `json:"cached"` // served from the server-side dynamic cache
}

// SegmentOffering is one per-segment result of a trip evaluation.
type SegmentOffering struct {
	SegmentIndex int             `json:"segment_index"`
	Anchor       LatLon          `json:"anchor"`
	ETA          time.Time       `json:"eta"`
	LengthM      float64         `json:"length_m"`
	Adapted      bool            `json:"adapted"` // served by the dynamic cache
	Entries      []OfferingEntry `json:"entries"`
}

// TripOfferingResponse is the whole-trip Mode 2 result.
type TripOfferingResponse struct {
	TripLengthM float64           `json:"trip_length_m"`
	Segments    []SegmentOffering `json:"segments"`
	SplitPoints []int             `json:"split_points"` // segment indexes where the top-k set changes
}

// WeatherResponse reports the production forecast of one charger site.
type WeatherResponse struct {
	ChargerID    int64        `json:"charger_id"`
	At           time.Time    `json:"at"`
	ProductionKW IntervalJSON `json:"production_kw"`
}

// AvailabilityResponse reports the availability estimate of one charger.
type AvailabilityResponse struct {
	ChargerID    int64        `json:"charger_id"`
	At           time.Time    `json:"at"`
	Availability IntervalJSON `json:"availability"`
}

// TrafficResponse reports the congestion multiplier band per road class.
// It stays JSON-only on the wire: the map-shaped body is tiny, fleet-global,
// and nowhere near the fan-out hot path.
type TrafficResponse struct {
	At         time.Time               `json:"at"`
	Multiplier map[string]IntervalJSON `json:"multiplier"`
}

// ErrorResponse is the JSON body of non-2xx responses. Errors are always
// JSON, even when the request negotiated binary: failure bodies are cold
// and must stay curl-readable.
type ErrorResponse struct {
	Error string `json:"error"`
}
