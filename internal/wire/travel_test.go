package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"ecocharge/internal/roadnet"
)

func sampleTravel() *TravelBlock {
	return &TravelBlock{
		Anchor:  901,
		ScaleLo: 0.97, ScaleHi: 1.12,
		Nodes:   []roadnet.NodeID{17, 4, 4, 2_000_000, 0},
		Seconds: []float64{12.5, 340, 340, math.Inf(1), 0},
	}
}

// TestTravelBlockRoundTrip: a request with a block decodes to the same
// request and the same block — +Inf, the block's word for "not reached",
// included — and a request without one encodes to the bytes it always did.
func TestTravelBlockRoundTrip(t *testing.T) {
	req := sampleRequest()
	bare := AppendOfferingRequest(nil, &req)
	req.Travel = sampleTravel()
	enc := AppendOfferingRequest(nil, &req)
	if !bytes.HasPrefix(enc, bare) || len(enc) == len(bare) {
		t.Fatal("the block is not an appendix to the request as it always was")
	}
	out := OfferingRequest{Travel: &TravelBlock{Nodes: []roadnet.NodeID{9}}}
	if err := DecodeOfferingRequest(enc, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	assertJSONEqual(t, &req, &out)
	if !reflect.DeepEqual(out.Travel, req.Travel) {
		t.Fatalf("block changed in flight: %+v, want %+v", out.Travel, req.Travel)
	}
	if err := DecodeOfferingRequest(bare, &out); err != nil || out.Travel != nil {
		t.Fatalf("a request without a block decoded to block %+v (%v)", out.Travel, err)
	}
	// The block never shows on the JSON plane.
	if b := jsonBytes(t, &req); bytes.Contains(b, []byte("ravel")) {
		t.Fatalf("the block leaked into JSON: %s", b)
	}
}

// TestHostileTravelBlocks: every way a block can be malformed is a decode
// error — a 400 at the server — and never a block.
func TestHostileTravelBlocks(t *testing.T) {
	req := sampleRequest()
	bare := AppendOfferingRequest(nil, &req)
	req.Travel = sampleTravel()
	enc := AppendOfferingRequest(nil, &req)
	const (
		anchorOff  = 1 // after the tag
		scaleLoOff = anchorOff + 4
		scaleHiOff = scaleLoOff + 8
		countOff   = scaleHiOff + 8 // one-byte uvarint for five entries
		nodeOff    = countOff + 1   // first entry's node
		secOff     = nodeOff + 4    // first entry's seconds
		lastSecOff = secOff + 4*minTravelSize
	)
	patch := func(off int, b []byte) []byte {
		bad := append([]byte(nil), enc...)
		copy(bad[len(bare)+off:], b)
		return bad
	}
	cases := map[string][]byte{
		"wrong tag":            patch(0, []byte{2}),
		"tag zero":             patch(0, []byte{0}),
		"scale lo zero":        patch(scaleLoOff, appendF64(nil, 0)),
		"scale lo negative":    patch(scaleLoOff, appendF64(nil, -0.9)),
		"scale lo above one":   patch(scaleLoOff, appendF64(nil, 1.01)),
		"scale lo NaN":         patch(scaleLoOff, appendF64(nil, math.NaN())),
		"scale hi below one":   patch(scaleHiOff, appendF64(nil, 0.99)),
		"scale hi infinite":    patch(scaleHiOff, appendF64(nil, math.Inf(1))),
		"count too large":      patch(countOff, []byte{6}),
		"count too small":      patch(countOff, []byte{4}),
		"count bomb":           append(append([]byte(nil), enc[:len(bare)+countOff]...), appendUvarint(nil, 1<<40)...),
		"NaN time":             patch(secOff, appendF64(nil, math.NaN())),
		"negative time":        patch(secOff, appendF64(nil, -1)),
		"-Inf time":            patch(lastSecOff, appendF64(nil, math.Inf(-1))),
		"negative node":        patch(nodeOff, appendU32(nil, uint32(0x80000001))),
		"negative anchor":      patch(anchorOff, appendU32(nil, uint32(0xffffffff))),
		"trailing byte":        append(append([]byte(nil), enc...), 0),
		"second block":         append(append([]byte(nil), enc...), enc[len(bare):]...),
		"tag and nothing else": append(append([]byte(nil), bare...), travelTag),
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

func sampleTrip() TripOfferingRequest {
	return TripOfferingRequest{
		Waypoints: []LatLon{{Lat: 53.07, Lon: 8.81}, {Lat: 53.11, Lon: 8.75}, {Lat: 53.2, Lon: 8.6}},
		Depart:    cestNow, K: 5, RadiusM: 25000, ReuseDistM: 3000, SegmentLenM: 4000,
		Weights: WeightsJSON{L: 0.5, A: 0.25, D: 0.25},
	}
}

// sampleTripBlocks are two blocks as a gateway holds them: heads, and the
// entries as slices.
type sampleBlock struct {
	head      TripBlock
	nodes     []roadnet.NodeID
	out, back []float64
}

func sampleTripBlocks() []sampleBlock {
	return []sampleBlock{
		{TripBlock{Segment: 0, Anchor: 901, Return: 17, ScaleLo: 0.97, ScaleHi: 1.12, Base: 88.5},
			[]roadnet.NodeID{17, 4, 4, 2_000_000}, []float64{88.5, 340, 340, math.Inf(1)}, []float64{0, 12, 12, 7}},
		{TripBlock{Segment: 3, Anchor: 5, Return: 5, ScaleLo: 1, ScaleHi: 1, Base: math.Inf(1)}, nil, nil, nil},
	}
}

func appendSampleTrip(req *TripOfferingRequest, blocks []sampleBlock) []byte {
	b := AppendTripRequest(nil, req)
	for i := range blocks {
		b = AppendTripBlock(b, &blocks[i].head, blocks[i].nodes, blocks[i].out, blocks[i].back)
	}
	return b
}

// TestTripRequestRoundTrip: a trip request decodes to the request its JSON
// twin decodes to, with the blocks it brought readable in place — the heads,
// every entry bit for bit, +Inf included, and the return node at Base after
// the last — and encodes again, blocks and all, to the bytes it came as.
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
	for i, want := range blocks {
		got := &out.Travel[i]
		head := *got
		head.entries = nil
		if !reflect.DeepEqual(head, want.head) || got.Len() != len(want.nodes)+1 {
			t.Fatalf("block %d: head %+v over %d nodes, want %+v over %d", i, head, got.Len(), want.head, len(want.nodes)+1)
		}
		for j, n := range want.nodes {
			gn, gout, gback := got.At(j)
			if gn != n || math.Float64bits(gout) != math.Float64bits(want.out[j]) || math.Float64bits(gback) != math.Float64bits(want.back[j]) {
				t.Fatalf("block %d entry %d: (%d, %v, %v), want (%d, %v, %v)", i, j, gn, gout, gback, n, want.out[j], want.back[j])
			}
		}
		if n, o, b := got.At(len(want.nodes)); n != want.head.Return || math.Float64bits(o) != math.Float64bits(want.head.Base) || b != 0 {
			t.Fatalf("block %d: the return node reads (%d, %v, %v), want (%d, %v, 0)", i, n, o, b, want.head.Return, want.head.Base)
		}
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
// blocks, is counted by TripRequestSize, and never shows on the JSON plane.
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
	entries := 0
	for _, b := range blocks {
		entries += len(b.nodes)
	}
	for _, n := range []int{len(req.Route), 300} {
		req.Route = make([]roadnet.NodeID, n)
		if size, enc := TripRequestSize(&req, len(blocks), entries), appendSampleTrip(&req, blocks); size < len(enc) {
			t.Fatalf("%d route nodes: TripRequestSize %d under the %d bytes of the request", n, size, len(enc))
		}
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
		segOff     = 1 // after the tag; a one-byte uvarint
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
		"NaN back":           patch(backOff+tripEntrySize, appendF64(nil, math.NaN())),
		"trailing byte":      append(append([]byte(nil), enc...), 0),
		"tag and no block":   append(append([]byte(nil), enc...), travelTag),
	}
	for i := len(bare) + 1; i < len(enc); i++ {
		cases["truncated at "+strconv.Itoa(i)] = enc[:i]
	}
	// Cut between the two blocks the message is whole: one block.
	first := len(AppendTripBlock(nil, &sampleTripBlocks()[0].head, sampleTripBlocks()[0].nodes, sampleTripBlocks()[0].out, sampleTripBlocks()[0].back))
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
