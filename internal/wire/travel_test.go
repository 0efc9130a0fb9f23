package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"ecocharge/internal/roadnet"
)

// sampleBlock is a travel block as a gateway holds it: its head, and the
// entries as slices.
type sampleBlock struct {
	head      TravelBlock
	nodes     []roadnet.NodeID
	out, back []float64
}

func (b *sampleBlock) appendTo(buf []byte) []byte {
	return AppendTravelBlock(buf, &b.head, b.nodes, b.out, b.back)
}

// sampleWorld is the road world the sample blocks name.
const sampleWorld = 0x5eed_0f_0ad5_c0de

// sampleTravel is an offering's block: one leg, back to the anchor.
func sampleTravel() sampleBlock {
	return sampleBlock{TravelBlock{World: sampleWorld, Anchor: 901, Return: 901, ScaleLo: 0.97, ScaleHi: 1.12},
		[]roadnet.NodeID{17, 4, 4, 2_000_000, 0}, []float64{12.5, 340, 340, math.Inf(1), 0}, nil}
}

// checkBlock fails unless got reads as want: the same head, every entry bit
// for bit — +Inf included, the time out for the time back on one leg — and
// the return node at Base after the last.
func checkBlock(t *testing.T, name string, got *TravelBlock, want *sampleBlock) {
	t.Helper()
	head := *got
	head.entries = nil
	if !reflect.DeepEqual(head, want.head) || got.Len() != len(want.nodes)+1 {
		t.Fatalf("%s: head %+v over %d nodes, want %+v over %d", name, head, got.Len(), want.head, len(want.nodes)+1)
	}
	for j, n := range want.nodes {
		back := want.out[j]
		if want.head.TwoLegs {
			back = want.back[j]
		}
		gn, gout, gback := got.At(j)
		if gn != n || math.Float64bits(gout) != math.Float64bits(want.out[j]) || math.Float64bits(gback) != math.Float64bits(back) {
			t.Fatalf("%s entry %d: (%d, %v, %v), want (%d, %v, %v)", name, j, gn, gout, gback, n, want.out[j], back)
		}
	}
	if n, o, b := got.At(len(want.nodes)); n != want.head.Return || math.Float64bits(o) != math.Float64bits(want.head.Base) || b != 0 {
		t.Fatalf("%s: the return node reads (%d, %v, %v), want (%d, %v, 0)", name, n, o, b, want.head.Return, want.head.Base)
	}
	if size, enc := TravelBlockSize(len(want.nodes), want.head.TwoLegs), want.appendTo(nil); size < len(enc) {
		t.Fatalf("%s: TravelBlockSize %d under the block's %d bytes", name, size, len(enc))
	}
}

// TestTravelBlockRoundTrip: a request with a block, of one leg or two,
// decodes to the same request and a block that reads as the one sent, and
// encodes again to the bytes it came as; a request without one encodes to
// the bytes it always did.
func TestTravelBlockRoundTrip(t *testing.T) {
	req := sampleRequest()
	bare := AppendOfferingRequest(nil, &req)
	two := sampleTripBlocks()[0]
	for name, block := range map[string]sampleBlock{"one leg": sampleTravel(), "two legs": two} {
		enc := block.appendTo(AppendOfferingRequest(nil, &req))
		if !bytes.HasPrefix(enc, bare) || len(enc) == len(bare) {
			t.Fatalf("%s: the block is not an appendix to the request as it always was", name)
		}
		out := OfferingRequest{Travel: &TravelBlock{Anchor: 9}}
		if err := DecodeOfferingRequest(enc, &out); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		assertJSONEqual(t, &req, &out)
		checkBlock(t, name, out.Travel, &block)
		if again := AppendOfferingRequest(nil, &out); !bytes.Equal(again, enc) {
			t.Fatalf("%s: a decoded request with a block does not encode to the bytes it came as", name)
		}
		// The block never shows on the JSON plane.
		if b := jsonBytes(t, &out); bytes.Contains(b, []byte("ravel")) {
			t.Fatalf("%s: the block leaked into JSON: %s", name, b)
		}
		if err := DecodeOfferingRequest(bare, &out); err != nil || out.Travel != nil {
			t.Fatalf("%s: a request without a block decoded to block %+v (%v)", name, out.Travel, err)
		}
	}
}

// TestHostileTravelBlocks: every way a block can be malformed is a decode
// error — a 400 at the server — and never a block.
func TestHostileTravelBlocks(t *testing.T) {
	req := sampleRequest()
	bare := AppendOfferingRequest(nil, &req)
	block := sampleTravel()
	enc := block.appendTo(AppendOfferingRequest(nil, &req))
	const (
		legsOff    = 1 // after the tag
		worldOff   = legsOff + 1
		segOff     = worldOff + 8
		anchorOff  = segOff + 1 // a one-byte uvarint
		returnOff  = anchorOff + 4
		scaleLoOff = returnOff + 4
		scaleHiOff = scaleLoOff + 8
		baseOff    = scaleHiOff + 8
		countOff   = baseOff + 8   // one-byte uvarint for five entries
		nodeOff    = countOff + 1  // first entry's node
		secOff     = nodeOff + 4   // first entry's seconds
		lastSecOff = secOff + 4*12 // one-leg entries are 12 bytes
	)
	patch := func(off int, b []byte) []byte {
		bad := append([]byte(nil), enc...)
		copy(bad[len(bare)+off:], b)
		return bad
	}
	cases := map[string][]byte{
		"wrong tag":            patch(0, []byte{2}),
		"tag zero":             patch(0, []byte{0}),
		"no legs":              patch(legsOff, []byte{0}),
		"three legs":           patch(legsOff, []byte{3}),
		"two legs, one given":  patch(legsOff, []byte{2}),
		"scale lo zero":        patch(scaleLoOff, appendF64(nil, 0)),
		"scale lo negative":    patch(scaleLoOff, appendF64(nil, -0.9)),
		"scale lo above one":   patch(scaleLoOff, appendF64(nil, 1.01)),
		"scale lo NaN":         patch(scaleLoOff, appendF64(nil, math.NaN())),
		"scale hi below one":   patch(scaleHiOff, appendF64(nil, 0.99)),
		"scale hi infinite":    patch(scaleHiOff, appendF64(nil, math.Inf(1))),
		"base NaN":             patch(baseOff, appendF64(nil, math.NaN())),
		"base negative":        patch(baseOff, appendF64(nil, -2)),
		"count too large":      patch(countOff, []byte{6}),
		"count too small":      patch(countOff, []byte{4}),
		"count bomb":           append(append([]byte(nil), enc[:len(bare)+countOff]...), appendUvarint(nil, 1<<40)...),
		"NaN time":             patch(secOff, appendF64(nil, math.NaN())),
		"negative time":        patch(secOff, appendF64(nil, -1)),
		"-Inf time":            patch(lastSecOff, appendF64(nil, math.Inf(-1))),
		"negative node":        patch(nodeOff, appendU32(nil, uint32(0x80000001))),
		"negative anchor":      patch(anchorOff, appendU32(nil, uint32(0xffffffff))),
		"negative return":      patch(returnOff, appendU32(nil, uint32(0x80000000))),
		"world cut short":      append(append([]byte(nil), enc[:len(bare)+worldOff]...), 1, 2, 3),
		"trailing byte":        append(append([]byte(nil), enc...), 0),
		"second block":         append(append([]byte(nil), enc...), enc[len(bare):]...),
		"tag and nothing else": append(append([]byte(nil), bare...), travelTag),
		"a route":              append(append([]byte(nil), bare...), routeTag, 0),
	}
	for i := len(bare) + 1; i < len(enc); i++ {
		cases["truncated at "+strconv.Itoa(i)] = enc[:i]
	}
	for name, bad := range cases {
		out := OfferingRequest{}
		if err := DecodeOfferingRequest(bad, &out); err == nil {
			t.Errorf("%s: decoded to %+v", name, out.Travel)
		}
		if out.Travel != nil {
			t.Errorf("%s: a failed decode left a block behind", name)
		}
	}
	var out OfferingRequest
	if err := DecodeOfferingRequest(enc, &out); err != nil {
		t.Fatalf("the unpatched message: %v", err)
	}
}

// TestTravelBlockDecodeAllocs: a block is read where it arrived, so decoding
// a request with one allocates the same bytes at 10 entries as at 1 000 —
// the block's head, and nothing an entry.
func TestTravelBlockDecodeAllocs(t *testing.T) {
	req := sampleRequest()
	bytesPerDecode := func(entries int) uint64 {
		block := sampleBlock{head: TravelBlock{Anchor: 1, Return: 1, ScaleLo: 1, ScaleHi: 1}}
		for i := 0; i < entries; i++ {
			block.nodes, block.out = append(block.nodes, roadnet.NodeID(i)), append(block.out, float64(i))
		}
		enc := block.appendTo(AppendOfferingRequest(nil, &req))
		var out OfferingRequest
		const runs = 1000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := DecodeOfferingRequest(enc, &out); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	if few, many := bytesPerDecode(10), bytesPerDecode(1000); few != many {
		t.Fatalf("a decode allocates %d B at 10 entries and %d B at 1 000: the block is copied", few, many)
	}
}

func sampleTrip() TripOfferingRequest {
	return TripOfferingRequest{
		Waypoints: []LatLon{{Lat: 53.07, Lon: 8.81}, {Lat: 53.11, Lon: 8.75}, {Lat: 53.2, Lon: 8.6}},
		Depart:    cestNow, K: 5, RadiusM: 25000, ReuseDistM: 3000, SegmentLenM: 4000,
		Weights: WeightsJSON{L: 0.5, A: 0.25, D: 0.25},
	}
}

// sampleTripBlocks are two blocks of a trip's segments as a gateway holds
// them: two legs each.
func sampleTripBlocks() []sampleBlock {
	return []sampleBlock{
		{TravelBlock{World: sampleWorld, Segment: 0, Anchor: 901, Return: 17, ScaleLo: 0.97, ScaleHi: 1.12, Base: 88.5, TwoLegs: true},
			[]roadnet.NodeID{17, 4, 4, 2_000_000}, []float64{88.5, 340, 340, math.Inf(1)}, []float64{0, 12, 12, 7}},
		{TravelBlock{World: sampleWorld, Segment: 3, Anchor: 5, Return: 5, ScaleLo: 1, ScaleHi: 1, Base: math.Inf(1), TwoLegs: true}, nil, nil, nil},
	}
}

func appendSampleTrip(req *TripOfferingRequest, blocks []sampleBlock) []byte {
	b := AppendTripRequest(nil, req)
	for i := range blocks {
		b = blocks[i].appendTo(b)
	}
	return b
}

// TestTripRequestRoundTrip: a trip request decodes to the request its JSON
// twin decodes to, with the blocks it brought readable in place (checkBlock),
// and encodes again, blocks and all, to the bytes it came as.
func TestTripRequestRoundTrip(t *testing.T) {
	req := sampleTrip()
	bare := AppendTripRequest(nil, &req)
	var out TripOfferingRequest
	if err := DecodeTripRequest(bare, &out); err != nil || out.Travel != nil {
		t.Fatalf("a request without blocks decoded to %d blocks (%v)", len(out.Travel), err)
	}
	assertJSONEqual(t, &req, &out)
	var viaJSON TripOfferingRequest
	if err := json.Unmarshal(jsonBytes(t, &req), &viaJSON); err != nil || !bytes.Equal(AppendTripRequest(nil, &viaJSON), bare) {
		t.Fatalf("the request encodes differently after a JSON round trip (%v)", err)
	}

	blocks := sampleTripBlocks()
	enc := appendSampleTrip(&req, blocks)
	if !bytes.HasPrefix(enc, bare) {
		t.Fatal("the blocks are not an appendix to the request")
	}
	if err := DecodeTripRequest(enc, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	assertJSONEqual(t, &req, &out)
	if len(out.Travel) != len(blocks) {
		t.Fatalf("%d blocks decoded, want %d", len(out.Travel), len(blocks))
	}
	for i := range blocks {
		checkBlock(t, "block "+strconv.Itoa(i), &out.Travel[i], &blocks[i])
	}
	if again := AppendTripRequest(nil, &out); !bytes.Equal(again, enc) {
		t.Fatal("a decoded request with blocks does not encode to the bytes it came as")
	}
	if b := jsonBytes(t, &out); bytes.Contains(b, []byte("ravel")) {
		t.Fatalf("the blocks leaked into JSON: %s", b)
	}
	// The other request kind's decoder does not take it, nor this one the other's.
	var o OfferingRequest
	sample := sampleRequest()
	if DecodeOfferingRequest(enc, &o) == nil || DecodeTripRequest(AppendOfferingRequest(nil, &sample), &out) == nil {
		t.Fatal("a request decoded as the other kind")
	}
}

// sampleRoute is a route as a gateway sends it, node 0 and a node past any
// graph included: the codec does not know the graph.
func sampleRoute() []roadnet.NodeID { return []roadnet.NodeID{901, 4, 0, 17, 2_000_000} }

// TestTripRequestRoute: a trip request with a route decodes to the same
// request and the same route, with blocks after it and without, and encodes
// again to the bytes it came as; the route sits between the fields and the
// blocks and never shows on the JSON plane.
func TestTripRequestRoute(t *testing.T) {
	req := sampleTrip()
	bare := AppendTripRequest(nil, &req)
	blocks := sampleTripBlocks()
	req.Route = sampleRoute()
	for name, enc := range map[string][]byte{
		"without blocks": AppendTripRequest(nil, &req),
		"with blocks":    appendSampleTrip(&req, blocks),
	} {
		if !bytes.HasPrefix(enc, bare) || enc[len(bare)] != routeTag {
			t.Fatalf("%s: the route does not follow the fields", name)
		}
		var out TripOfferingRequest
		if err := DecodeTripRequest(enc, &out); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		assertJSONEqual(t, &req, &out)
		if !reflect.DeepEqual(out.Route, req.Route) {
			t.Fatalf("%s: route changed in flight: %v, want %v", name, out.Route, req.Route)
		}
		if again := AppendTripRequest(nil, &out); !bytes.Equal(again, enc) {
			t.Fatalf("%s: a decoded request with a route does not encode to the bytes it came as", name)
		}
		if b := jsonBytes(t, &out); bytes.Contains(b, []byte("oute")) {
			t.Fatalf("%s: the route leaked into JSON: %s", name, b)
		}
	}
	var out TripOfferingRequest
	if err := DecodeTripRequest(appendSampleTrip(&req, blocks), &out); err != nil || len(out.Travel) != len(blocks) {
		t.Fatalf("%d blocks after the route (%v), want %d", len(out.Travel), err, len(blocks))
	}
	// An empty route is well-formed — whether it routes is the receiver's
	// question — and stays apart from no route.
	req.Route = []roadnet.NodeID{}
	if err := DecodeTripRequest(AppendTripRequest(nil, &req), &out); err != nil || out.Route == nil || len(out.Route) != 0 {
		t.Fatalf("an empty route decoded to %v (%v)", out.Route, err)
	}
	if err := DecodeTripRequest(bare, &out); err != nil || out.Route != nil {
		t.Fatalf("a request without a route decoded to route %v (%v)", out.Route, err)
	}
}

// TestHostileTripBlocks: every way a trip request's route or blocks can be
// malformed is a decode error — a 400 at the server — and leaves no route or
// block behind.
func TestHostileTripBlocks(t *testing.T) {
	req := sampleTrip()
	bare := AppendTripRequest(nil, &req)
	enc := appendSampleTrip(&req, sampleTripBlocks())
	const (
		legsOff    = 1 // after the tag
		worldOff   = legsOff + 1
		segOff     = worldOff + 8 // a one-byte uvarint
		anchorOff  = segOff + 1
		returnOff  = anchorOff + 4
		scaleLoOff = returnOff + 4
		scaleHiOff = scaleLoOff + 8
		baseOff    = scaleHiOff + 8
		countOff   = baseOff + 8 // one-byte uvarint for four entries
		nodeOff    = countOff + 1
		outOff     = nodeOff + 4
		backOff    = outOff + 8
	)
	patch := func(off int, b []byte) []byte {
		bad := append([]byte(nil), enc...)
		copy(bad[len(bare)+off:], b)
		return bad
	}
	cases := map[string][]byte{
		"wrong tag":          patch(0, []byte{3}),
		"no legs":            patch(legsOff, []byte{0}),
		"three legs":         patch(legsOff, []byte{3}),
		"segment overflows":  append(append(append([]byte(nil), enc[:len(bare)+segOff]...), appendUvarint(nil, 1<<40)...), enc[len(bare)+anchorOff:]...),
		"negative anchor":    patch(anchorOff, appendU32(nil, 0xffffffff)),
		"negative return":    patch(returnOff, appendU32(nil, 0x80000000)),
		"scale lo zero":      patch(scaleLoOff, appendF64(nil, 0)),
		"scale lo above one": patch(scaleLoOff, appendF64(nil, 1.01)),
		"scale lo NaN":       patch(scaleLoOff, appendF64(nil, math.NaN())),
		"scale hi below one": patch(scaleHiOff, appendF64(nil, 0.99)),
		"scale hi infinite":  patch(scaleHiOff, appendF64(nil, math.Inf(1))),
		"base NaN":           patch(baseOff, appendF64(nil, math.NaN())),
		"base negative":      patch(baseOff, appendF64(nil, -2)),
		"count too large":    patch(countOff, []byte{5}),
		"count too small":    patch(countOff, []byte{3}),
		"count bomb":         append(append([]byte(nil), enc[:len(bare)+countOff]...), appendUvarint(nil, 1<<40)...),
		"negative node":      patch(nodeOff, appendU32(nil, 0x80000001)),
		"NaN out":            patch(outOff, appendF64(nil, math.NaN())),
		"negative out":       patch(outOff, appendF64(nil, -1)),
		"-Inf back":          patch(backOff, appendF64(nil, math.Inf(-1))),
		"NaN back":           patch(backOff+twoLegEntrySize, appendF64(nil, math.NaN())),
		"trailing byte":      append(append([]byte(nil), enc...), 0),
		"tag and no block":   append(append([]byte(nil), enc...), travelTag),
	}
	for i := len(bare) + 1; i < len(enc); i++ {
		cases["truncated at "+strconv.Itoa(i)] = enc[:i]
	}
	// Cut between the two blocks the message is whole: one block.
	first := len(sampleTripBlocks()[0].appendTo(nil))
	delete(cases, "truncated at "+strconv.Itoa(len(bare)+first))
	for name, bad := range cases {
		var out TripOfferingRequest
		if err := DecodeTripRequest(bad, &out); err == nil {
			t.Errorf("%s: decoded to %d blocks", name, len(out.Travel))
		}
		if out.Travel != nil {
			t.Errorf("%s: a failed decode left blocks behind", name)
		}
	}
	// The route: after the fields, once, before the first block.
	routed := req
	routed.Route = sampleRoute()
	withRoute := AppendTripRequest(nil, &routed)
	route := withRoute[len(bare):]
	const routeNodeOff = 1 + 1 // tag, one-byte count
	routeCases := map[string][]byte{
		"route after a block":    append(slices.Clone(enc), route...),
		"two routes":             append(slices.Clone(withRoute), route...),
		"route count too large":  append(slices.Clone(bare), append([]byte{routeTag, byte(len(routed.Route) + 1)}, route[2:]...)...),
		"route count bomb":       append(append(slices.Clone(bare), routeTag), appendUvarint(nil, 1<<40)...),
		"negative route node":    append(slices.Clone(withRoute[:len(bare)+routeNodeOff]), append(appendU32(nil, 0x80000000), route[routeNodeOff+4:]...)...),
		"route tag and no route": append(slices.Clone(bare), routeTag),
	}
	for i := len(bare) + 1; i < len(withRoute); i++ {
		routeCases["route truncated at "+strconv.Itoa(i)] = withRoute[:i]
	}
	for name, bad := range routeCases {
		var out TripOfferingRequest
		if err := DecodeTripRequest(bad, &out); err == nil {
			t.Errorf("%s: decoded to route %v and %d blocks", name, out.Route, len(out.Travel))
		}
		if out.Route != nil || out.Travel != nil {
			t.Errorf("%s: a failed decode left a route or blocks behind", name)
		}
	}
	var out TripOfferingRequest
	if err := DecodeTripRequest(enc, &out); err != nil {
		t.Fatalf("the unpatched message: %v", err)
	}
	// Waypoints are sized against the payload before anything is allocated.
	bomb := append(appendHeader(nil, kindTripRequest), appendUvarint(nil, 1<<40)...)
	if err := DecodeTripRequest(bomb, &out); err == nil {
		t.Error("a waypoint count past the payload decoded")
	}
}
