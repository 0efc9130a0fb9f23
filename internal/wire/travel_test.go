package wire

import (
	"bytes"
	"math"
	"reflect"
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
