package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/geo"
	"ecocharge/internal/roadnet"
)

// fuzzTime builds a time from fuzzed parts, rejecting anything RFC 3339
// cannot render canonically: the wire's equality contract is "re-encoded
// JSON is byte-identical", so inputs outside JSON's own domain are skipped,
// not failed.
func fuzzTime(sec int64, nsec uint32, offMin int32) (time.Time, bool) {
	if sec < 0 || sec > 4_000_000_000 || nsec >= 1_000_000_000 {
		return time.Time{}, false
	}
	off := int(offMin) * 60
	if off < -14*3600 || off > 14*3600 {
		return time.Time{}, false
	}
	loc := time.UTC
	if off != 0 {
		loc = time.FixedZone("", off)
	}
	return time.Unix(sec, int64(nsec)).In(loc), true
}

func finite(fs ...float64) bool {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// FuzzWireRoundTrip is the codec's central correctness pin: for any valid
// domain value, binary encode→decode must reproduce the exact JSON bytes
// the original would have produced, and a JSON round trip must wire-encode
// to the same binary bytes. Either direction drifting means the two
// content types no longer describe the same response.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(53.07, 8.81, 5, 25000.0, 0.5, 0.25, 0.25,
		int64(1718702000), uint32(0), int32(0),
		int64(42), 0.1, 0.9, int64(1718703000), uint32(123456789), int32(120), uint8(3), true)
	f.Add(-10.0, 170.0, 1, 1.0, 1.0, 0.0, 0.0,
		int64(0), uint32(1), int32(-840),
		int64(-1), 0.0, 1.0, int64(4_000_000_000), uint32(999_999_999), int32(840), uint8(255), false)
	f.Fuzz(func(t *testing.T,
		lat, lon float64, k int, radius, wl, wa, wd float64,
		nowSec int64, nowNsec uint32, nowOff int32,
		chargerID int64, scMin, scMax float64,
		etaSec int64, etaNsec uint32, etaOff int32,
		degraded uint8, cached bool,
	) {
		if !finite(lat, lon, radius, wl, wa, wd, scMin, scMax) {
			t.Skip("non-finite input is JSON-unrepresentable")
		}
		now, ok := fuzzTime(nowSec, nowNsec, nowOff)
		if !ok {
			t.Skip("time outside the RFC 3339 domain")
		}
		eta, ok := fuzzTime(etaSec, etaNsec, etaOff)
		if !ok {
			t.Skip("time outside the RFC 3339 domain")
		}

		req := OfferingRequest{
			Lat: lat, Lon: lon, K: k, RadiusM: radius,
			Weights: WeightsJSON{L: wl, A: wa, D: wd},
			Now:     now, ETA: eta,
		}
		var reqOut OfferingRequest
		if err := DecodeOfferingRequest(AppendOfferingRequest(nil, &req), &reqOut); err != nil {
			t.Fatalf("request decode: %v", err)
		}
		assertFuzzJSONEqual(t, "request", &req, &reqOut)

		// The same request with a travel block: whatever the fuzzer makes of
		// the block's numbers, it either travels unchanged or is refused —
		// and it is refused exactly when it is not well-formed.
		req.Travel = &TravelBlock{
			Anchor:  roadnet.NodeID(int32(k)),
			ScaleLo: wl, ScaleHi: wa,
			Nodes:   []roadnet.NodeID{roadnet.NodeID(int32(k)), roadnet.NodeID(degraded)},
			Seconds: []float64{scMin, math.Inf(1)},
		}
		wellFormed := wl > 0 && wl <= 1 && wa >= 1 && int32(k) >= 0 && scMin >= 0
		switch err := DecodeOfferingRequest(AppendOfferingRequest(nil, &req), &reqOut); {
		case err == nil && !wellFormed:
			t.Fatalf("malformed travel block accepted: %+v", req.Travel)
		case err != nil && wellFormed:
			t.Fatalf("well-formed travel block refused: %v", err)
		case err == nil && !reflect.DeepEqual(req.Travel, reqOut.Travel):
			t.Fatalf("travel block changed in flight: %+v, want %+v", reqOut.Travel, req.Travel)
		case err != nil && reqOut.Travel != nil:
			t.Fatal("a refused request left a travel block behind")
		}

		// The whole-trip request, bare and with travel blocks, under the same
		// two rules.
		trip := TripOfferingRequest{
			Waypoints: []LatLon{{Lat: lat, Lon: lon}, {Lat: wl, Lon: wa}},
			Depart:    now, K: k, RadiusM: radius, ReuseDistM: scMin, SegmentLenM: scMax,
			Weights: WeightsJSON{L: wl, A: wa, D: wd},
		}
		var tripOut TripOfferingRequest
		tripEnc := AppendTripRequest(nil, &trip)
		if err := DecodeTripRequest(tripEnc, &tripOut); err != nil || tripOut.Travel != nil {
			t.Fatalf("trip request decode: %v, %d blocks", err, len(tripOut.Travel))
		}
		assertFuzzJSONEqual(t, "trip request", &trip, &tripOut)
		head := TripBlock{
			Segment: int(degraded), Anchor: roadnet.NodeID(int32(k)), Return: roadnet.NodeID(degraded),
			ScaleLo: wl, ScaleHi: wa, Base: scMin,
		}
		nodes, outSec, backSec := []roadnet.NodeID{roadnet.NodeID(int32(k)), 7}, []float64{scMin, math.Inf(1)}, []float64{scMax, 0}
		wellFormed = wl > 0 && wl <= 1 && wa >= 1 && int32(k) >= 0 && scMin >= 0 && scMax >= 0
		// Without a route and with one ahead of the blocks, whose nodes are
		// well-formed where the blocks' are.
		for _, route := range [][]roadnet.NodeID{nil, {roadnet.NodeID(int32(k)), roadnet.NodeID(degraded), 0}} {
			trip.Route = route
			withBlocks := AppendTripBlock(AppendTripBlock(AppendTripRequest(nil, &trip), &head, nodes, outSec, backSec), &head, nil, nil, nil)
			switch err := DecodeTripRequest(withBlocks, &tripOut); {
			case err == nil && !wellFormed:
				t.Fatalf("malformed trip block or route accepted: %+v, %v", head, route)
			case err != nil && wellFormed:
				t.Fatalf("well-formed trip block and route refused: %v", err)
			case err != nil && (tripOut.Travel != nil || tripOut.Route != nil):
				t.Fatal("a refused trip request left a route or blocks behind")
			case err == nil:
				if !bytes.Equal(AppendTripRequest(nil, &tripOut), withBlocks) || !reflect.DeepEqual(tripOut.Route, route) {
					t.Fatal("trip route or blocks changed in flight")
				}
				b := &tripOut.Travel[0]
				if n, o, r := b.At(0); len(tripOut.Travel) != 2 || b.Len() != 3 || n != nodes[0] || o != scMin || r != scMax {
					t.Fatalf("trip block reads (%d, %v, %v) first of %d in %d blocks", n, o, r, b.Len(), len(tripOut.Travel))
				}
			}
		}

		resp := OfferingResponse{
			Entries: []OfferingEntry{{
				ChargerID: chargerID, Lat: lat, Lon: lon, RateKW: radius,
				SC:  IntervalJSON{Min: scMin, Max: scMax},
				L:   IntervalJSON{Min: wl, Max: wl},
				A:   IntervalJSON{Min: wa, Max: wa},
				D:   IntervalJSON{Min: wd, Max: wd},
				ETA: eta, Degraded: degraded,
			}},
			GeneratedAt: now, Cached: cached,
		}
		var respOut OfferingResponse
		enc := AppendOfferingResponse(nil, &resp)
		if err := DecodeOfferingResponse(enc, &respOut); err != nil {
			t.Fatalf("response decode: %v", err)
		}
		assertFuzzJSONEqual(t, "response", &resp, &respOut)

		// JSON round trip, then wire-encode both sides: the binary rendering
		// must be independent of which plane the value last travelled.
		jb, err := json.Marshal(&resp)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var viaJSON OfferingResponse
		if err := json.Unmarshal(jb, &viaJSON); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !bytes.Equal(enc, AppendOfferingResponse(nil, &viaJSON)) {
			t.Fatalf("wire bytes differ after a JSON round trip\njson: %s", jb)
		}

		// The whole-trip response under the same two rules: a segment with
		// the table above, one with none, and the split points.
		tripResp := TripOfferingResponse{
			TripLengthM: radius,
			Segments: []SegmentOffering{
				{SegmentIndex: k, Anchor: LatLon{Lat: lat, Lon: lon}, ETA: eta, LengthM: scMax, Adapted: cached, Entries: resp.Entries},
				{SegmentIndex: int(degraded), Anchor: LatLon{Lat: wl, Lon: wa}, ETA: now, LengthM: wd, Adapted: !cached},
			},
			SplitPoints: []int{k, int(degraded)},
		}
		var tripRespOut TripOfferingResponse
		tripRespEnc := AppendTripResponse(nil, &tripResp)
		if err := DecodeTripResponse(tripRespEnc, &tripRespOut); err != nil {
			t.Fatalf("trip response decode: %v", err)
		}
		assertFuzzJSONEqual(t, "trip response", &tripResp, &tripRespOut)
		if jb, err = json.Marshal(&tripResp); err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var tripViaJSON TripOfferingResponse
		if err := json.Unmarshal(jb, &tripViaJSON); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !bytes.Equal(tripRespEnc, AppendTripResponse(nil, &tripViaJSON)) {
			t.Fatalf("trip response wire bytes differ after a JSON round trip\njson: %s", jb)
		}

		// Charger inventory leg, gated on coordinates the domain accepts.
		p := geo.Point{Lat: lat, Lon: lon}
		if !p.Valid() || radius < 0 {
			return
		}
		cs := []charger.Charger{{
			ID: chargerID, P: p, Node: roadnet.NodeID(int32(k)),
			Rate: charger.RateFromKW(radius), PanelKW: wl, WindKW: wa,
			Plugs: int(degraded),
		}}
		cs[0].Timetable[int(degraded)%7][int(degraded)%24] = wd
		csOut, err := DecodeChargers(AppendChargers(nil, cs), nil)
		if err != nil {
			t.Fatalf("chargers decode: %v", err)
		}
		assertFuzzJSONEqual(t, "chargers", cs, csOut)
	})
}

func assertFuzzJSONEqual(t *testing.T, leg string, want, got interface{}) {
	t.Helper()
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("%s: marshal want: %v", leg, err)
	}
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatalf("%s: marshal got: %v", leg, err)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatalf("%s: JSON drift across the binary plane\nwant %s\ngot  %s", leg, wb, gb)
	}
}

// FuzzWireDecode throws raw bytes at every decoder: none may panic, and
// anything that decodes must re-encode and decode again to the same value
// (idempotence — the decoder accepts nothing it cannot reproduce).
func FuzzWireDecode(f *testing.F) {
	req := sampleRequest()
	resp := sampleResponse(2)
	f.Add(AppendOfferingRequest(nil, &req))
	req.Travel = sampleTravel()
	f.Add(AppendOfferingRequest(nil, &req))
	f.Add(AppendOfferingResponse(nil, &resp))
	tripResp := sampleTripResponse(3)
	f.Add(AppendTripResponse(nil, &tripResp))
	trip := sampleTrip()
	f.Add(AppendTripRequest(nil, &trip))
	f.Add(appendSampleTrip(&trip, sampleTripBlocks()))
	trip.Route = sampleRoute()
	f.Add(AppendTripRequest(nil, &trip))
	f.Add(appendSampleTrip(&trip, sampleTripBlocks()))
	f.Add(AppendChargers(nil, sampleChargers(1)))
	f.Add(AppendWeather(nil, &WeatherResponse{ChargerID: 1, At: utcNow}))
	f.Add([]byte{magic, version, kindChargers, 1, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var reqOut OfferingRequest
		if err := DecodeOfferingRequest(data, &reqOut); err == nil {
			var again OfferingRequest
			if err := DecodeOfferingRequest(AppendOfferingRequest(nil, &reqOut), &again); err != nil {
				t.Fatalf("request re-decode: %v", err)
			}
			assertFuzzJSONEqual(t, "request", &reqOut, &again)
			if !reflect.DeepEqual(reqOut.Travel, again.Travel) {
				t.Fatalf("travel block re-decode: %+v, then %+v", reqOut.Travel, again.Travel)
			}
			if tb := reqOut.Travel; tb != nil {
				if !(tb.ScaleLo > 0 && tb.ScaleLo <= 1 && tb.ScaleHi >= 1) || tb.Anchor < 0 || len(tb.Nodes) != len(tb.Seconds) {
					t.Fatalf("decoder let a malformed travel block through: %+v", tb)
				}
				for i, n := range tb.Nodes {
					if n < 0 || !(tb.Seconds[i] >= 0) {
						t.Fatalf("decoder let travel entry %d through: node %d at %v s", i, n, tb.Seconds[i])
					}
				}
			}
		}
		var tripOut TripOfferingRequest
		if err := DecodeTripRequest(data, &tripOut); err == nil {
			var again TripOfferingRequest
			if err := DecodeTripRequest(AppendTripRequest(nil, &tripOut), &again); err != nil {
				t.Fatalf("trip request re-decode: %v", err)
			}
			assertFuzzJSONEqual(t, "trip request", &tripOut, &again)
			if len(again.Travel) != len(tripOut.Travel) {
				t.Fatalf("trip blocks re-decode: %d, then %d", len(tripOut.Travel), len(again.Travel))
			}
			if !reflect.DeepEqual(again.Route, tripOut.Route) {
				t.Fatalf("trip route re-decode: %v, then %v", tripOut.Route, again.Route)
			}
			for i, n := range tripOut.Route {
				if n < 0 {
					t.Fatalf("decoder let route node %d through: node %d", i, n)
				}
			}
			for i := range tripOut.Travel {
				b, a := &tripOut.Travel[i], &again.Travel[i]
				if !reflect.DeepEqual(b, a) {
					t.Fatalf("trip block %d re-decode: %+v, then %+v", i, b, a)
				}
				if !(b.ScaleLo > 0 && b.ScaleLo <= 1 && b.ScaleHi >= 1) || b.Segment < 0 || b.Anchor < 0 || b.Return < 0 || !(b.Base >= 0) {
					t.Fatalf("decoder let a malformed trip block through: %+v", b)
				}
				for j := 0; j < b.Len(); j++ {
					if n, o, r := b.At(j); n < 0 || !(o >= 0) || !(r >= 0) {
						t.Fatalf("decoder let trip entry %d through: node %d, %v s out, %v s back", j, n, o, r)
					}
				}
			}
		} else if tripOut.Travel != nil || tripOut.Route != nil {
			t.Fatal("a refused trip request left a route or blocks behind")
		}
		var respOut OfferingResponse
		if err := DecodeOfferingResponse(data, &respOut); err == nil {
			var again OfferingResponse
			if err := DecodeOfferingResponse(AppendOfferingResponse(nil, &respOut), &again); err != nil {
				t.Fatalf("response re-decode: %v", err)
			}
			assertFuzzJSONEqual(t, "response", &respOut, &again)
		}
		var tripRespOut TripOfferingResponse
		if err := DecodeTripResponse(data, &tripRespOut); err == nil {
			// Into storage that held another answer, as the gateway decodes.
			again := sampleTripResponse(2)
			if err := DecodeTripResponse(AppendTripResponse(nil, &tripRespOut), &again); err != nil {
				t.Fatalf("trip response re-decode: %v", err)
			}
			assertFuzzJSONEqual(t, "trip response", &tripRespOut, &again)
		}
		if cs, err := DecodeChargers(data, nil); err == nil {
			if _, err := DecodeChargers(AppendChargers(nil, cs), nil); err != nil {
				t.Fatalf("chargers re-decode: %v", err)
			}
		}
		var w WeatherResponse
		_ = DecodeWeather(data, &w)
		var a AvailabilityResponse
		_ = DecodeAvailability(data, &a)
	})
}

// FuzzOfferingJSONRoundTrip pins the JSON plane itself: marshal→unmarshal→
// marshal must be byte-stable for any domain response, so cached JSON
// bodies and freshly encoded ones can be compared byte-wise.
func FuzzOfferingJSONRoundTrip(f *testing.F) {
	f.Add(int64(42), 53.07, 8.81, 150.0, 0.25, 0.75,
		int64(1718702000), uint32(500), int32(60), uint8(0), true, false)
	f.Add(int64(-7), -90.0, 180.0, 0.0, 1.0, 0.0,
		int64(0), uint32(0), int32(0), uint8(255), false, true)
	f.Fuzz(func(t *testing.T,
		id int64, lat, lon, rate, lo, hi float64,
		sec int64, nsec uint32, offMin int32,
		degraded uint8, cached, nilEntries bool,
	) {
		if !finite(lat, lon, rate, lo, hi) {
			t.Skip("non-finite input is JSON-unrepresentable")
		}
		ts, ok := fuzzTime(sec, nsec, offMin)
		if !ok {
			t.Skip("time outside the RFC 3339 domain")
		}
		resp := OfferingResponse{GeneratedAt: ts, Cached: cached}
		if !nilEntries {
			resp.Entries = []OfferingEntry{{
				ChargerID: id, Lat: lat, Lon: lon, RateKW: rate,
				SC:  IntervalJSON{Min: lo, Max: hi},
				L:   IntervalJSON{Min: lo, Max: hi},
				A:   IntervalJSON{Min: lo, Max: hi},
				D:   IntervalJSON{Min: lo, Max: hi},
				ETA: ts, Degraded: degraded,
			}}
		}
		first, err := json.Marshal(&resp)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back OfferingResponse
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		second, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("JSON round trip unstable\nfirst  %s\nsecond %s", first, second)
		}

		// The trip response around the same table: byte-stable on the JSON
		// plane, and the same bytes after a leg on the binary one — a gateway
		// merges JSON and binary shard answers into one client body.
		trip := TripOfferingResponse{TripLengthM: rate}
		if !nilEntries {
			trip.Segments = []SegmentOffering{{
				SegmentIndex: int(degraded), Anchor: LatLon{Lat: lat, Lon: lon},
				ETA: ts, LengthM: hi, Adapted: cached, Entries: resp.Entries,
			}, {ETA: ts}}
			trip.SplitPoints = []int{int(degraded)}
		}
		if first, err = json.Marshal(&trip); err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var tripBack, tripViaWire TripOfferingResponse
		if err := json.Unmarshal(first, &tripBack); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if second, err = json.Marshal(&tripBack); err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("trip JSON round trip unstable\nfirst  %s\nsecond %s", first, second)
		}
		if err := DecodeTripResponse(AppendTripResponse(nil, &tripBack), &tripViaWire); err != nil {
			t.Fatalf("trip response decode: %v", err)
		}
		if second, err = json.Marshal(&tripViaWire); err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("trip JSON changed across the binary plane\nfirst  %s\nsecond %s", first, second)
		}
	})
}
