package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"testing"
	"time"
)

// sampleTripResponse is a trip answer of n segments as a shard writes it:
// tables of different sizes, an adapted segment, an empty table (null on the
// JSON plane) and the split points.
func sampleTripResponse(n int) TripOfferingResponse {
	resp := TripOfferingResponse{TripLengthM: 12345.678}
	for i := 0; i < n; i++ {
		seg := SegmentOffering{
			SegmentIndex: i,
			Anchor:       LatLon{Lat: 53.1 + float64(i)/100, Lon: 8.2 - float64(i)/100},
			ETA:          cestNow.Add(time.Duration(i) * 7 * time.Minute),
			LengthM:      4000 - float64(i),
			Adapted:      i%3 == 1,
		}
		if i%4 != 3 {
			seg.Entries = sampleResponse(1 + i%5).Entries
		}
		resp.Segments = append(resp.Segments, seg)
		if i%2 == 0 {
			resp.SplitPoints = append(resp.SplitPoints, i)
		}
	}
	return resp
}

func TestTripResponseRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 9} {
		resp := sampleTripResponse(n)
		enc := AppendTripResponse(nil, &resp)
		var out TripOfferingResponse
		if err := DecodeTripResponse(enc, &out); err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		assertJSONEqual(t, &resp, &out)
		if !bytes.Equal(AppendTripResponse(nil, &out), enc) {
			t.Fatalf("n=%d: the decoded answer encodes to other bytes", n)
		}
	}
}

// TestTripResponseNilsPreserved pins null against [] at every level of the
// answer — segments, a segment's entries, split points — into a fresh
// destination and into one that held another answer.
func TestTripResponseNilsPreserved(t *testing.T) {
	cases := map[string]TripOfferingResponse{
		"all nil":   {TripLengthM: 1},
		"all empty": {TripLengthM: 1, Segments: []SegmentOffering{}, SplitPoints: []int{}},
		"nil and empty tables": {Segments: []SegmentOffering{
			{SegmentIndex: 0, ETA: utcNow, Entries: nil},
			{SegmentIndex: 1, ETA: utcNow, Entries: []OfferingEntry{}},
		}, SplitPoints: []int{0}},
	}
	for name, resp := range cases {
		enc := AppendTripResponse(nil, &resp)
		for _, out := range []TripOfferingResponse{{}, sampleTripResponse(5)} {
			if err := DecodeTripResponse(enc, &out); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			assertJSONEqual(t, &resp, &out)
		}
	}
}

// TestTripResponseReusesStorage: decoding into the destination of an earlier,
// larger answer keeps its segment and entry storage and leaves nothing of the
// earlier answer in the new one.
func TestTripResponseReusesStorage(t *testing.T) {
	big, small := sampleTripResponse(9), sampleTripResponse(4)
	small.TripLengthM = 77
	for i := range small.Segments {
		small.Segments[i].Adapted = !small.Segments[i].Adapted
	}
	var out TripOfferingResponse
	if err := DecodeTripResponse(AppendTripResponse(nil, &big), &out); err != nil {
		t.Fatal(err)
	}
	first := &out.Segments[0]
	if err := DecodeTripResponse(AppendTripResponse(nil, &small), &out); err != nil {
		t.Fatal(err)
	}
	assertJSONEqual(t, &small, &out)
	if first != &out.Segments[0] {
		t.Fatal("a smaller answer moved the segment storage")
	}
	encBig := AppendTripResponse(nil, &big)
	if a := testing.AllocsPerRun(100, func() {
		if err := DecodeTripResponse(encBig, &out); err != nil {
			t.Fatal(err)
		}
	}); a > 1 { // the zone of the sample's +02:00 stamps, once a message
		t.Errorf("decode into warm storage: %v allocs/op, want the message's zone at most", a)
	}
	buf := make([]byte, 0, 1<<16)
	if a := testing.AllocsPerRun(100, func() { buf = AppendTripResponse(buf[:0], &big) }); a != 0 {
		t.Errorf("encode: %v allocs/op, want 0", a)
	}
}

// TestHostileTripResponses: every strict prefix, a trailing byte, counts the
// payload cannot hold, presence bytes that are neither, and numbers JSON
// cannot carry are decode errors — a 502 at the gateway — and never a panic.
func TestHostileTripResponses(t *testing.T) {
	resp := sampleTripResponse(3)
	enc := AppendTripResponse(nil, &resp)
	const (
		lengthOff   = 3
		presenceOff = lengthOff + 8
		countOff    = presenceOff + 1
		seg0Off     = countOff + 1 // one-byte uvarint for three segments
		anchorOff   = seg0Off + 1  // after segment 0's one-byte index
		etaNsecOff  = anchorOff + 16 + 8
		adaptedOff  = anchorOff + 16 + 16 + 8
		entriesOff  = adaptedOff + 1 // segment 0's entries presence byte
	)
	// The message ends in its split points: presence, count, 0 and 2.
	splitOff := len(enc) - 4
	if !bytes.Equal(enc[splitOff:], []byte{1, 2, 0, 4}) {
		t.Fatalf("the sample ends in % x, not in its two split points", enc[splitOff:])
	}
	patch := func(off int, b []byte) []byte {
		bad := append([]byte(nil), enc...)
		copy(bad[off:], b)
		return bad
	}
	cases := map[string][]byte{
		"wrong kind":            patch(2, []byte{kindOfferingResponse}),
		"NaN trip length":       patch(lengthOff, appendF64(nil, math.NaN())),
		"infinite anchor":       patch(anchorOff, appendF64(nil, math.Inf(1))),
		"segments presence 2":   patch(presenceOff, []byte{2}),
		"segment count too big": patch(countOff, []byte{4}),
		"segment count bomb":    append(append([]byte(nil), enc[:countOff]...), appendUvarint(nil, 1<<40)...),
		"nanoseconds":           patch(etaNsecOff, appendU32(nil, 2_000_000_000)),
		"adapted 2":             patch(adaptedOff, []byte{2}),
		"entries presence 2":    patch(entriesOff, []byte{2}),
		"entry count bomb":      append(append([]byte(nil), enc[:entriesOff+1]...), appendUvarint(nil, 1<<40)...),
		"split presence 2":      patch(splitOff, []byte{2}),
		"split count too big":   patch(splitOff+1, []byte{3}),
		"trailing byte":         append(append([]byte(nil), enc...), 0),
	}
	for i := 0; i < len(enc); i++ {
		cases["truncated at "+strconv.Itoa(i)] = enc[:i]
	}
	for name, bad := range cases {
		var out TripOfferingResponse
		if err := DecodeTripResponse(bad, &out); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	var out TripOfferingResponse
	if err := DecodeTripResponse(enc, &out); err != nil {
		t.Fatalf("the unpatched message: %v", err)
	}
}

// TestTripResponseJSONTwin: the bytes a JSON shard writes and the bytes the
// binary plane carries describe one answer — JSON → struct → wire → struct →
// JSON is the identity.
func TestTripResponseJSONTwin(t *testing.T) {
	resp := sampleTripResponse(6)
	jb := jsonBytes(t, &resp)
	var viaJSON TripOfferingResponse
	if err := json.Unmarshal(jb, &viaJSON); err != nil {
		t.Fatal(err)
	}
	enc := AppendTripResponse(nil, &viaJSON)
	if !bytes.Equal(enc, AppendTripResponse(nil, &resp)) {
		t.Fatal("wire bytes differ after a JSON round trip")
	}
	var viaWire TripOfferingResponse
	if err := DecodeTripResponse(enc, &viaWire); err != nil {
		t.Fatal(err)
	}
	if got := jsonBytes(t, &viaWire); !bytes.Equal(got, jb) {
		t.Fatalf("JSON drift across the binary plane\nwant %s\ngot  %s", jb, got)
	}
}
