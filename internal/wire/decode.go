package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/roadnet"
)

// Decoders mirror the encoders field by field over a sticky-error reader:
// the first malformed byte poisons the reader, every later read returns
// zero values, and the public Decode* functions surface the recorded error.
// Truncated, oversized-count, and non-finite inputs all fail cleanly — the
// fuzz targets drive arbitrary bytes through every decoder.
//
// Decoding is allocation-free in steady state: callers pass the output
// struct (or slice) to reuse, and the only allocation the reader ever makes
// is one fixed zone per *new* UTC offset, cached across the message.

type reader struct {
	b   []byte
	off int
	err error

	// zone caches the last non-UTC offset's location so a message full of
	// same-zone timestamps costs one FixedZone at most.
	zoneOff int32
	zone    *time.Location
}

func (r *reader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b)-r.off < n {
		r.fail("truncated message: need %d bytes at offset %d, have %d", n, r.off, len(r.b)-r.off)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *reader) u8() byte {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *reader) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (r *reader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *reader) i64() int64 { return int64(r.u64()) }

// f64 rejects NaN and infinities: JSON cannot carry them, so a binary
// message claiming one is corrupt, not a value to propagate.
func (r *reader) f64() float64 {
	v := math.Float64frombits(r.u64())
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("non-finite float at offset %d", r.off)
		return 0
	}
	return v
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("malformed varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	uv := r.uvarint()
	v := int64(uv >> 1)
	if uv&1 != 0 {
		v = ^v
	}
	return v
}

func (r *reader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("malformed bool at offset %d", r.off)
		return false
	}
}

// Bounds on what the JSON plane can render: RFC 3339 offsets stop at
// ±23:59, and years at [0, 9999] — shrunk here by the widest offset so the
// *local* year stays in range too. The wire contract is JSON-equivalence,
// so a decoded time the JSON plane cannot marshal is malformed, not merely
// exotic.
const (
	maxZoneOff = 23*3600 + 59*60
	minTimeSec = -62167219200 + maxZoneOff
	maxTimeSec = 253402300800 - maxZoneOff - 1
)

// CarriesTime reports whether the binary plane carries t, so that a sender
// holding a time from a JSON body can tell before it encodes a message the
// receiver would refuse.
func CarriesTime(t time.Time) bool {
	sec := t.Unix()
	return sec >= minTimeSec && sec <= maxTimeSec
}

func (r *reader) time() time.Time {
	sec := r.i64()
	nsec := r.u32()
	off := int32(r.u32())
	if r.err != nil {
		return time.Time{}
	}
	if nsec >= 1e9 {
		r.fail("nanoseconds %d out of range at offset %d", nsec, r.off)
		return time.Time{}
	}
	if sec < minTimeSec || sec > maxTimeSec {
		r.fail("timestamp %d outside the JSON-renderable year range at offset %d", sec, r.off)
		return time.Time{}
	}
	if off < -maxZoneOff || off > maxZoneOff {
		r.fail("zone offset %d outside the RFC 3339 range at offset %d", off, r.off)
		return time.Time{}
	}
	loc := time.UTC
	if off != 0 {
		if r.zone == nil || r.zoneOff != off {
			r.zone = time.FixedZone("", int(off))
			r.zoneOff = off
		}
		loc = r.zone
	}
	return time.Unix(sec, int64(nsec)).In(loc)
}

func (r *reader) interval() IntervalJSON {
	min := r.f64()
	max := r.f64()
	return IntervalJSON{Min: min, Max: max}
}

// header consumes and verifies the three-byte message header.
func (r *reader) header(kind byte) {
	s := r.take(3)
	if s == nil {
		return
	}
	if s[0] != magic {
		r.fail("bad magic 0x%02X (want 0x%02X)", s[0], magic)
		return
	}
	if s[1] != version {
		r.fail("unsupported version %d (want %d)", s[1], version)
		return
	}
	if s[2] != kind {
		r.fail("message kind %d, want %d", s[2], kind)
	}
}

// finish asserts the payload consumed the input exactly.
func (r *reader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes after message", len(r.b)-r.off)
	}
	return nil
}

// count validates a length prefix against the bytes actually remaining:
// each element needs at least minSize bytes, so a count the payload cannot
// possibly hold is rejected before any allocation happens.
func (r *reader) count(minSize int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)-r.off)/uint64(minSize) {
		r.fail("length prefix %d exceeds payload", n)
		return 0
	}
	return int(n)
}

// Minimum encoded sizes, used to sanity-check length prefixes.
const (
	minEntrySize    = 8 + 8 + 8 + 8 + 4*16 + 16 + 1         // 113
	minChargerSize  = 8 + 8 + 8 + 4 + 8 + 8 + 8 + 1 + 168*8 // 1397
	minTravelSize   = 4 + 8                                 // node, seconds
	minWaypointSize = 8 + 8
	minSegmentSize  = 1 + 8 + 8 + 16 + 8 + 1 + 1 // index, anchor, ETA, length, adapted, entries presence
)

// DecodeOfferingRequest decodes a binary Mode 2 request into out.
func DecodeOfferingRequest(data []byte, out *OfferingRequest) error {
	r := reader{b: data}
	r.header(kindOfferingRequest)
	out.Lat = r.f64()
	out.Lon = r.f64()
	out.K = int(r.varint())
	out.RadiusM = r.f64()
	out.Weights.L = r.f64()
	out.Weights.A = r.f64()
	out.Weights.D = r.f64()
	out.Now = r.time()
	out.ETA = r.time()
	out.Travel = nil
	if r.err == nil && r.off < len(r.b) {
		out.Travel = r.travel()
	}
	err := r.finish()
	if err != nil {
		out.Travel = nil // a block is all or nothing
	}
	return err
}

// travel decodes the optional travel block of a request. What it lets
// through is well-formed, not true: scale factors that are a band around 1,
// node IDs that are not negative, times that are non-negative or +Inf (the
// one non-finite value the block has a meaning for). Whether the nodes exist
// and cover the ranking is for the receiver, which has the graph, to say.
func (r *reader) travel() *TravelBlock {
	if tag := r.u8(); tag != travelTag {
		r.fail("byte 0x%02X after the request is not a travel block", tag)
		return nil
	}
	t := &TravelBlock{Anchor: roadnet.NodeID(int32(r.u32())), ScaleLo: r.f64(), ScaleHi: r.f64()}
	if r.err == nil && t.Anchor < 0 {
		r.fail("travel anchor is node %d", t.Anchor)
	}
	if r.err == nil && !(t.ScaleLo > 0 && t.ScaleLo <= 1 && t.ScaleHi >= 1) {
		r.fail("travel scale factors [%v, %v] are not a band around 1", t.ScaleLo, t.ScaleHi)
	}
	n := r.count(minTravelSize)
	if r.err != nil {
		return nil
	}
	t.Nodes = make([]roadnet.NodeID, n)
	t.Seconds = make([]float64, n)
	for i := range t.Nodes {
		node := int32(r.u32())
		sec := math.Float64frombits(r.u64())
		if r.err == nil && (node < 0 || !(sec >= 0)) {
			r.fail("travel entry %d: node %d at %v s", i, node, sec)
		}
		t.Nodes[i], t.Seconds[i] = roadnet.NodeID(node), sec
	}
	if r.err != nil {
		return nil
	}
	return t
}

// DecodeTripRequest decodes a binary whole-trip request into out. The blocks
// it brought along keep reading data (TripBlock.At): out.Travel is good for
// as long as data is. The route is copied out.
func DecodeTripRequest(data []byte, out *TripOfferingRequest) error {
	r := reader{b: data}
	r.header(kindTripRequest)
	out.Waypoints = nil
	if n := r.count(minWaypointSize); n > 0 {
		out.Waypoints = make([]LatLon, n)
		for i := range out.Waypoints {
			out.Waypoints[i] = LatLon{Lat: r.f64(), Lon: r.f64()}
		}
	}
	out.Depart = r.time()
	out.K = int(r.varint())
	out.RadiusM = r.f64()
	out.ReuseDistM = r.f64()
	out.SegmentLenM = r.f64()
	out.Weights.L = r.f64()
	out.Weights.A = r.f64()
	out.Weights.D = r.f64()
	out.Route, out.Travel = nil, nil
	for r.err == nil && r.off < len(r.b) {
		if r.b[r.off] != routeTag {
			out.Travel = append(out.Travel, r.tripBlock())
			continue
		}
		switch {
		case out.Travel != nil:
			r.fail("a route after a travel block at offset %d", r.off)
		case out.Route != nil:
			r.fail("a second route at offset %d", r.off)
		default:
			out.Route = r.route()
		}
	}
	err := r.finish()
	if err != nil {
		out.Route, out.Travel = nil, nil // a route and blocks are all or nothing
	}
	return err
}

// route decodes the route of a trip request, never nil when it decodes. Like
// tripBlock, it lets through what is well-formed — node IDs that are not
// negative — not what is true: whether the nodes are in the graph and route
// the trip is for the receiver to say.
func (r *reader) route() []roadnet.NodeID {
	r.u8() // routeTag
	n := r.count(4)
	if r.err != nil {
		return nil
	}
	route := make([]roadnet.NodeID, n)
	for i := range route {
		node := int32(r.u32())
		if r.err == nil && node < 0 {
			r.fail("route node %d is node %d", i, node)
		}
		route[i] = roadnet.NodeID(node)
	}
	return route
}

// seconds reads a travel time: non-negative, or +Inf for a node the search
// did not reach — the one non-finite value a block has a meaning for.
func (r *reader) seconds() float64 {
	v := math.Float64frombits(r.u64())
	if r.err == nil && !(v >= 0) {
		r.fail("travel time %v at offset %d", v, r.off)
	}
	return v
}

// tripBlock decodes one block of a trip request, leaving its entries where
// they are. Like travel, it lets through what is well-formed, not what is
// true.
func (r *reader) tripBlock() TripBlock {
	if tag := r.u8(); r.err == nil && tag != travelTag {
		r.fail("byte 0x%02X after the request is not a travel block", tag)
	}
	seg := r.uvarint()
	t := TripBlock{
		Segment: int(seg), Anchor: roadnet.NodeID(int32(r.u32())), Return: roadnet.NodeID(int32(r.u32())),
		ScaleLo: r.f64(), ScaleHi: r.f64(), Base: r.seconds(),
	}
	if r.err == nil && (seg > math.MaxInt32 || t.Anchor < 0 || t.Return < 0) {
		r.fail("travel block of segment %d from node %d back to node %d", seg, t.Anchor, t.Return)
	}
	if r.err == nil && !(t.ScaleLo > 0 && t.ScaleLo <= 1 && t.ScaleHi >= 1) {
		r.fail("travel scale factors [%v, %v] are not a band around 1", t.ScaleLo, t.ScaleHi)
	}
	t.entries = r.take(r.count(tripEntrySize) * tripEntrySize)
	for i := 0; i < len(t.entries) && r.err == nil; i += tripEntrySize {
		e := t.entries[i:][:tripEntrySize]
		node := int32(binary.LittleEndian.Uint32(e))
		out, back := math.Float64frombits(binary.LittleEndian.Uint64(e[4:])), math.Float64frombits(binary.LittleEndian.Uint64(e[12:]))
		if node < 0 || !(out >= 0) || !(back >= 0) {
			r.fail("travel entry %d: node %d, %v s out and %v s back", i/tripEntrySize, node, out, back)
		}
	}
	return t
}

func (r *reader) entry(e *OfferingEntry) {
	e.ChargerID = r.i64()
	e.Lat = r.f64()
	e.Lon = r.f64()
	e.RateKW = r.f64()
	e.SC = r.interval()
	e.L = r.interval()
	e.A = r.interval()
	e.D = r.interval()
	e.ETA = r.time()
	e.Degraded = r.u8()
}

// entries decodes one table's entries into dst's storage: nil for an encoded
// nil list, and [] (not null) for an empty one, even into a fresh
// destination.
func (r *reader) entries(dst []OfferingEntry) []OfferingEntry {
	switch r.u8() {
	case 0:
		return nil
	case 1:
		n := r.count(minEntrySize)
		if dst == nil || cap(dst) < n {
			dst = make([]OfferingEntry, n)
		}
		dst = dst[:n]
		for i := 0; i < n && r.err == nil; i++ {
			r.entry(&dst[i])
		}
	default:
		r.fail("malformed entries presence byte")
	}
	return dst
}

// DecodeOfferingResponse decodes a binary Mode 2 response into out,
// reusing out.Entries' capacity.
func DecodeOfferingResponse(data []byte, out *OfferingResponse) error {
	r := reader{b: data}
	r.header(kindOfferingResponse)
	out.Entries = r.entries(out.Entries)
	out.GeneratedAt = r.time()
	out.Cached = r.bool()
	return r.finish()
}

// DecodeTripResponse decodes a binary whole-trip response into out, reusing
// the capacity of out.Segments, of the entries of every segment decoded into
// before, and of out.SplitPoints: a caller that keeps out from response to
// response decodes without allocating once it has seen its largest trip.
func DecodeTripResponse(data []byte, out *TripOfferingResponse) error {
	r := reader{b: data}
	r.header(kindTripResponse)
	out.TripLengthM = r.f64()
	switch r.u8() {
	case 0:
		out.Segments = nil
	case 1:
		n := r.count(minSegmentSize)
		if out.Segments == nil || cap(out.Segments) < n {
			// The segments decoded into before keep their entry storage.
			grown := make([]SegmentOffering, n)
			copy(grown, out.Segments[:cap(out.Segments)])
			out.Segments = grown
		}
		out.Segments = out.Segments[:n]
		for i := 0; i < n && r.err == nil; i++ {
			seg := &out.Segments[i]
			seg.SegmentIndex = int(r.varint())
			seg.Anchor = LatLon{Lat: r.f64(), Lon: r.f64()}
			seg.ETA = r.time()
			seg.LengthM = r.f64()
			seg.Adapted = r.bool()
			seg.Entries = r.entries(seg.Entries)
		}
	default:
		r.fail("malformed segments presence byte")
	}
	switch r.u8() {
	case 0:
		out.SplitPoints = nil
	case 1:
		n := r.count(1)
		if out.SplitPoints == nil {
			out.SplitPoints = make([]int, 0, n)
		}
		out.SplitPoints = out.SplitPoints[:0]
		for i := 0; i < n && r.err == nil; i++ {
			out.SplitPoints = append(out.SplitPoints, int(r.varint()))
		}
	default:
		r.fail("malformed split points presence byte")
	}
	return r.finish()
}

func (r *reader) charger(c *charger.Charger) {
	c.ID = r.i64()
	c.P.Lat = r.f64()
	c.P.Lon = r.f64()
	if r.err == nil && !c.P.Valid() {
		r.fail("charger %d: invalid coordinates (%v, %v)", c.ID, c.P.Lat, c.P.Lon)
		return
	}
	c.Node = roadnet.NodeID(int32(r.u32()))
	c.Rate = charger.RateFromKW(r.f64())
	c.PanelKW = r.f64()
	c.WindKW = r.f64()
	c.Plugs = int(r.varint())
	for d := 0; d < 7; d++ {
		for h := 0; h < 24; h++ {
			c.Timetable[d][h] = r.f64()
		}
	}
}

// DecodeChargers decodes a binary charger list, appending into dst[:0] so
// callers can reuse one slice across responses. It returns nil for an
// encoded nil list (preserving the JSON null/[] distinction).
func DecodeChargers(data []byte, dst []charger.Charger) ([]charger.Charger, error) {
	r := reader{b: data}
	r.header(kindChargers)
	switch r.u8() {
	case 0:
		return nil, r.finish()
	case 1:
	default:
		r.fail("malformed chargers presence byte")
		return nil, r.finish()
	}
	n := r.count(minChargerSize)
	if dst == nil {
		// An encoded empty list must decode to [] (not null), even into a
		// fresh destination.
		dst = make([]charger.Charger, 0, n)
	}
	dst = dst[:0]
	for i := 0; i < n && r.err == nil; i++ {
		var c charger.Charger
		r.charger(&c)
		dst = append(dst, c)
	}
	if err := r.finish(); err != nil {
		return nil, err
	}
	return dst, nil
}

// DecodeWeather decodes a binary production-forecast lookup into out.
func DecodeWeather(data []byte, out *WeatherResponse) error {
	r := reader{b: data}
	r.header(kindWeather)
	out.ChargerID = r.i64()
	out.At = r.time()
	out.ProductionKW = r.interval()
	return r.finish()
}

// DecodeAvailability decodes a binary availability lookup into out.
func DecodeAvailability(data []byte, out *AvailabilityResponse) error {
	r := reader{b: data}
	r.header(kindAvailability)
	out.ChargerID = r.i64()
	out.At = r.time()
	out.Availability = r.interval()
	return r.finish()
}
