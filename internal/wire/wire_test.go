package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/geo"
	"ecocharge/internal/roadnet"
)

var (
	utcNow  = time.Date(2024, 6, 18, 9, 30, 0, 0, time.UTC)
	cestNow = time.Date(2024, 6, 18, 11, 30, 0, 123456789, time.FixedZone("", 2*3600))
)

func sampleRequest() OfferingRequest {
	return OfferingRequest{
		Lat: 53.07, Lon: 8.81, K: 5, RadiusM: 25000,
		Weights: WeightsJSON{L: 0.5, A: 0.25, D: 0.25},
		Now:     utcNow, ETA: cestNow,
	}
}

func sampleResponse(n int) OfferingResponse {
	resp := OfferingResponse{GeneratedAt: utcNow, Cached: true}
	for i := 0; i < n; i++ {
		f := float64(i)
		resp.Entries = append(resp.Entries, OfferingEntry{
			ChargerID: int64(1000 + i),
			Lat:       53 + f/100, Lon: 8 - f/100, RateKW: 50,
			SC:       IntervalJSON{Min: 0.1 * f, Max: 0.1*f + 0.3},
			L:        IntervalJSON{Min: 0.2, Max: 0.4},
			A:        IntervalJSON{Min: 0, Max: 1},
			D:        IntervalJSON{Min: 0.9, Max: 0.95},
			ETA:      utcNow.Add(time.Duration(i) * time.Minute),
			Degraded: uint8(i % 8),
		})
	}
	return resp
}

func sampleChargers(n int) []charger.Charger {
	cs := make([]charger.Charger, n)
	for i := range cs {
		f := float64(i)
		cs[i] = charger.Charger{
			ID:   int64(i + 1),
			P:    geo.Point{Lat: 53 + f/50, Lon: 8 + f/50},
			Node: roadnet.NodeID(i * 7), Rate: charger.RateFromKW(150),
			PanelKW: 10 + f, WindKW: f, Plugs: 2 + i%3,
		}
		for d := 0; d < 7; d++ {
			for h := 0; h < 24; h++ {
				cs[i].Timetable[d][h] = float64((d*24+h+i)%10) / 10
			}
		}
	}
	return cs
}

func jsonBytes(t *testing.T, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	return b
}

// assertJSONEqual pins the equivalence contract the way the wire actually
// observes it: the re-encoded JSON of the binary round trip must be
// byte-identical to the JSON of the original. (DeepEqual is wrong for
// time.Time — locations legitimately differ by pointer.)
func assertJSONEqual(t *testing.T, want, got interface{}) {
	t.Helper()
	wb, gb := jsonBytes(t, want), jsonBytes(t, got)
	if !bytes.Equal(wb, gb) {
		t.Fatalf("binary round trip changed the JSON rendering\nwant %s\ngot  %s", wb, gb)
	}
}

func TestOfferingRequestRoundTrip(t *testing.T) {
	req := sampleRequest()
	enc := AppendOfferingRequest(nil, &req)
	var out OfferingRequest
	if err := DecodeOfferingRequest(enc, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	assertJSONEqual(t, &req, &out)
	if !out.Now.Equal(req.Now) || !out.ETA.Equal(req.ETA) {
		t.Fatal("decoded times are not the same instants")
	}
}

func TestOfferingResponseRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7} {
		resp := sampleResponse(n)
		if n == 0 {
			resp.Entries = []OfferingEntry{} // empty but present
		}
		enc := AppendOfferingResponse(nil, &resp)
		var out OfferingResponse
		if err := DecodeOfferingResponse(enc, &out); err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		assertJSONEqual(t, &resp, &out)
	}
}

// TestNilEntriesPreserved pins the JSON null vs [] distinction across the
// binary plane.
func TestNilEntriesPreserved(t *testing.T) {
	for _, entries := range [][]OfferingEntry{nil, {}} {
		resp := OfferingResponse{Entries: entries, GeneratedAt: utcNow}
		var out OfferingResponse
		out.Entries = []OfferingEntry{{}} // stale state the decoder must overwrite
		if err := DecodeOfferingResponse(AppendOfferingResponse(nil, &resp), &out); err != nil {
			t.Fatal(err)
		}
		if (out.Entries == nil) != (entries == nil) {
			t.Fatalf("nil-ness lost: sent %v, got %v", entries == nil, out.Entries == nil)
		}
		assertJSONEqual(t, &resp, &out)
	}
}

func TestChargersRoundTrip(t *testing.T) {
	cs := sampleChargers(5)
	enc := AppendChargers(nil, cs)
	out, err := DecodeChargers(enc, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	assertJSONEqual(t, cs, out)

	// The pointer-slice encoder must produce identical bytes.
	refs := make([]*charger.Charger, len(cs))
	for i := range cs {
		refs[i] = &cs[i]
	}
	if !bytes.Equal(enc, AppendChargerRefs(nil, refs)) {
		t.Fatal("AppendChargerRefs bytes differ from AppendChargers")
	}

	// Nil list round trip (the JSON null inventory).
	out, err = DecodeChargers(AppendChargers(nil, nil), out)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		t.Fatalf("nil charger list decoded as %v", out)
	}
}

func TestPointLookupRoundTrips(t *testing.T) {
	w := WeatherResponse{ChargerID: 42, At: cestNow, ProductionKW: IntervalJSON{Min: 0, Max: 17.5}}
	var wOut WeatherResponse
	if err := DecodeWeather(AppendWeather(nil, &w), &wOut); err != nil {
		t.Fatal(err)
	}
	assertJSONEqual(t, &w, &wOut)

	a := AvailabilityResponse{ChargerID: 7, At: utcNow, Availability: IntervalJSON{Min: 0.25, Max: 0.75}}
	var aOut AvailabilityResponse
	if err := DecodeAvailability(AppendAvailability(nil, &a), &aOut); err != nil {
		t.Fatal(err)
	}
	assertJSONEqual(t, &a, &aOut)
}

// TestTruncatedInputs feeds every strict prefix of valid messages to their
// decoders: each must fail cleanly, none may panic.
func TestTruncatedInputs(t *testing.T) {
	req := sampleRequest()
	resp := sampleResponse(3)
	cs := sampleChargers(2)
	msgs := []struct {
		name string
		enc  []byte
		dec  func([]byte) error
	}{
		{"request", AppendOfferingRequest(nil, &req), func(b []byte) error {
			var o OfferingRequest
			return DecodeOfferingRequest(b, &o)
		}},
		{"response", AppendOfferingResponse(nil, &resp), func(b []byte) error {
			var o OfferingResponse
			return DecodeOfferingResponse(b, &o)
		}},
		{"chargers", AppendChargers(nil, cs), func(b []byte) error {
			_, err := DecodeChargers(b, nil)
			return err
		}},
	}
	for _, m := range msgs {
		for i := 0; i < len(m.enc); i++ {
			if err := m.dec(m.enc[:i]); err == nil {
				t.Fatalf("%s: %d-byte prefix of %d decoded without error", m.name, i, len(m.enc))
			}
		}
		if err := m.dec(append(append([]byte(nil), m.enc...), 0)); err == nil {
			t.Fatalf("%s: trailing byte accepted", m.name)
		}
	}
}

func TestHeaderValidation(t *testing.T) {
	w := WeatherResponse{ChargerID: 1, At: utcNow}
	enc := AppendWeather(nil, &w)
	var out WeatherResponse

	bad := append([]byte(nil), enc...)
	bad[0] = 0x00 // magic
	if err := DecodeWeather(bad, &out); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), enc...)
	bad[1] = 99 // version
	if err := DecodeWeather(bad, &out); err == nil {
		t.Fatal("unknown version accepted")
	}
	// Kind cross-wiring: a weather message is not an availability message.
	var aOut AvailabilityResponse
	if err := DecodeAvailability(enc, &aOut); err == nil {
		t.Fatal("kind mismatch accepted")
	}
}

// TestNonFiniteRejected overwrites a float field with NaN and ±Inf bits:
// JSON cannot carry them, so the decoder must refuse them.
func TestNonFiniteRejected(t *testing.T) {
	w := WeatherResponse{ChargerID: 1, At: utcNow, ProductionKW: IntervalJSON{Min: 1, Max: 2}}
	enc := AppendWeather(nil, &w)
	const minOff = 3 + 8 + 16 // header, charger id, time
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := append([]byte(nil), enc...)
		copy(bad[minOff:], appendF64(nil, v))
		var out WeatherResponse
		if err := DecodeWeather(bad, &out); err == nil {
			t.Fatalf("non-finite %v accepted", v)
		}
	}
}

// TestCountBombRejected pins the length-prefix validation: a count the
// payload cannot possibly hold must fail before any allocation.
func TestCountBombRejected(t *testing.T) {
	b := appendHeader(nil, kindChargers)
	b = append(b, 1)
	b = appendUvarint(b, 1<<40) // claims a trillion chargers in 3 bytes
	if _, err := DecodeChargers(b, nil); err == nil {
		t.Fatal("absurd count accepted")
	}
}

func TestMalformedScalars(t *testing.T) {
	resp := sampleResponse(0)
	enc := AppendOfferingResponse(nil, &resp)
	bad := append([]byte(nil), enc...)
	bad[len(bad)-1] = 2 // Cached bool out of range
	var out OfferingResponse
	if err := DecodeOfferingResponse(bad, &out); err == nil {
		t.Fatal("bool byte 2 accepted")
	}

	// Nanoseconds >= 1e9 in GeneratedAt.
	bad = append([]byte(nil), enc...)
	nsecOff := len(bad) - 1 - 4 - 4 // cached, zone offset, nsec
	copy(bad[nsecOff:], appendU32(nil, 2_000_000_000))
	if err := DecodeOfferingResponse(bad, &out); err == nil {
		t.Fatal("out-of-range nanoseconds accepted")
	}
}

func TestNegotiationHelpers(t *testing.T) {
	acceptCases := []struct {
		accept string
		want   bool
	}{
		{"", false},
		{"*/*", false},
		{"application/json", false},
		{ContentType, true},
		{"APPLICATION/X-ECOCHARGE-WIRE", true},
		{"application/json, " + ContentType + ";q=0.9", true},
		{" " + ContentType + " ", true},
		{ContentType + "x", false},
	}
	for _, c := range acceptCases {
		if got := Accepts(c.accept); got != c.want {
			t.Errorf("Accepts(%q) = %v, want %v", c.accept, got, c.want)
		}
	}
	if !IsWire(ContentType + "; charset=binary") {
		t.Error("IsWire rejected a parameterized Content-Type")
	}
	if IsWire("application/json") {
		t.Error("IsWire accepted JSON")
	}
}

// chunkReader yields data in tiny reads to exercise ReadLimit's growth loop.
type chunkReader struct {
	data []byte
	n    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := c.n
	if n > len(c.data) {
		n = len(c.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

func TestReadLimit(t *testing.T) {
	data := bytes.Repeat([]byte("abcdefgh"), 1000)
	var buf Buffer
	if err := buf.ReadLimit(&chunkReader{data: data, n: 7}, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.B, data) {
		t.Fatalf("ReadLimit read %d bytes, want %d", len(buf.B), len(data))
	}
	// One byte over the limit is readable (the caller's oversize signal),
	// never more.
	if err := buf.ReadLimit(&chunkReader{data: data, n: 13}, int64(len(data))-1); err != nil {
		t.Fatal(err)
	}
	if len(buf.B) != len(data) {
		t.Fatalf("over-limit read returned %d bytes, want max+1 = %d", len(buf.B), len(data))
	}
	// Reuse must reset content.
	if err := buf.ReadLimit(strings.NewReader("xy"), 100); err != nil {
		t.Fatal(err)
	}
	if string(buf.B) != "xy" {
		t.Fatalf("reused buffer holds %q", buf.B)
	}
}

// TestAllocFreeSteadyState asserts the codec's core promise: encode and
// decode run with zero allocations per operation once buffers and output
// structures are warm.
func TestAllocFreeSteadyState(t *testing.T) {
	resp := sampleResponse(8)
	req := sampleRequest()
	req.Now, req.ETA = utcNow, utcNow // UTC stays zone-cache-free
	for i := range resp.Entries {
		resp.Entries[i].ETA = utcNow
	}
	cs := sampleChargers(4)

	buf := make([]byte, 0, 1<<16)
	if a := testing.AllocsPerRun(200, func() {
		buf = AppendOfferingResponse(buf[:0], &resp)
	}); a != 0 {
		t.Errorf("encode response: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		buf = AppendChargers(buf[:0], cs)
	}); a != 0 {
		t.Errorf("encode chargers: %v allocs/op, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		buf = AppendOfferingRequest(buf[:0], &req)
	}); a != 0 {
		t.Errorf("encode request: %v allocs/op, want 0", a)
	}

	encResp := AppendOfferingResponse(nil, &resp)
	out := OfferingResponse{Entries: make([]OfferingEntry, 0, len(resp.Entries))}
	if a := testing.AllocsPerRun(200, func() {
		if err := DecodeOfferingResponse(encResp, &out); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("decode response: %v allocs/op, want 0", a)
	}

	encCs := AppendChargers(nil, cs)
	dst := make([]charger.Charger, 0, len(cs))
	if a := testing.AllocsPerRun(200, func() {
		var err error
		dst, err = DecodeChargers(encCs, dst)
		if err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("decode chargers: %v allocs/op, want 0", a)
	}

	encReq := AppendOfferingRequest(nil, &req)
	var reqOut OfferingRequest
	if a := testing.AllocsPerRun(200, func() {
		if err := DecodeOfferingRequest(encReq, &reqOut); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("decode request: %v allocs/op, want 0", a)
	}
}

// TestZoneOffsetsSurviveRoundTrip exercises the time codec across zone
// shapes: UTC, positive and negative fixed offsets, and sub-second parts.
func TestZoneOffsetsSurviveRoundTrip(t *testing.T) {
	times := []time.Time{
		utcNow,
		cestNow,
		time.Date(2031, 12, 31, 23, 59, 59, 999999999, time.FixedZone("", -7*3600)),
		time.Unix(0, 1).UTC(),
	}
	for _, ts := range times {
		w := WeatherResponse{ChargerID: 1, At: ts}
		var out WeatherResponse
		if err := DecodeWeather(AppendWeather(nil, &w), &out); err != nil {
			t.Fatalf("%v: %v", ts, err)
		}
		if !out.At.Equal(ts) {
			t.Fatalf("instant drifted: sent %v, got %v", ts, out.At)
		}
		assertJSONEqual(t, &w, &out)
	}
}
