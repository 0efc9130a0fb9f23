package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"ecocharge/internal/eis"
	"ecocharge/internal/obs"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/wire"
)

// tripBody is a trip request over n waypoints that alternate between two
// corners of the test network, every other field as given.
func tripBody(t testing.TB, h *fleetHarness, n int, req eis.TripOfferingRequest) []byte {
	t.Helper()
	ends := [2]roadnet.NodeID{0, roadnet.NodeID(h.env.Graph.NumNodes() - 1)}
	for i := 0; i < n; i++ {
		p := h.env.Graph.Node(ends[i%2]).P
		req.Waypoints = append(req.Waypoints, eis.LatLon{Lat: p.Lat, Lon: p.Lon})
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetResolvesRequestsLikeAShard: the gateway reads an offering and a
// trip with a shard's own parser and resolvers (eis.DecodeOffering,
// eis.DecodeTrip, eis.ResolveOffering, eis.ResolveTripOffering), on either
// plane, and answers /chargers and /traffic with a shard's own handlers
// (eis.Feeds), so a defaulted request gets the same bytes from it as from a
// single EIS and a malformed one the same 400, whose text is pinned here. The
// gateway answers that 400 itself, in front of the fan-out, and asks no shard.
func TestFleetResolvesRequestsLikeAShard(t *testing.T) {
	h := newFleetHarness(t, harnessOpts{n: 3})
	center := h.env.Graph.Bounds().Center()
	const offering, trip, chargers, traffic = eis.APIVersion + "/offering", eis.APIVersion + "/offering/trip", eis.APIVersion + "/chargers", eis.APIVersion + "/traffic"
	// Times just outside what the binary plane carries: year 0 and year 9999
	// as their zones render them, a few hours either side in UTC.
	const early, late = "0000-01-01T10:00:00+23:59", "9999-12-31T20:00:00-23:59"
	earlyT, err := time.Parse(time.RFC3339, early)
	if err != nil {
		t.Fatal(err)
	}
	wireOffering := func(req eis.OfferingRequest) []byte { return wire.AppendOfferingRequest(nil, &req) }
	// A k of its own, so that no cached table answers it.
	at := func(field, when string) []byte {
		return []byte(`{"lat":` + fmtFloat(center.Lat) + `,"lon":` + fmtFloat(center.Lon) + `,"k":2,"` + field + `":"` + when + `"}`)
	}
	edgeTrip := tripBody(t, h, 2, eis.TripOfferingRequest{ReuseDistM: 1, Depart: earlyT})
	for _, tc := range []struct {
		name, pathq string
		body        []byte
		wire        bool   // the body is in the binary form
		want400     string // "" expects a 200
	}{
		// Only the waypoints and Q (adaptation is legitimately shard-local,
		// see sixMethodsIdentical): K, R, segment length, departure and
		// weights are the resolver's.
		{"trip defaults", trip, tripBody(t, h, 2, eis.TripOfferingRequest{ReuseDistM: 1}), false, ""},
		{"trip in the binary form", trip, wireTrip(t, tripBody(t, h, 3, eis.TripOfferingRequest{ReuseDistM: 1, Depart: fixedNow})), true, ""},
		{"trip one waypoint", trip, tripBody(t, h, 1, eis.TripOfferingRequest{}), false, "need at least 2 waypoints, got 1"},
		{"trip bad waypoint", trip, []byte(`{"waypoints":[{"lat":53.02,"lon":8.02},{"lat":95,"lon":8}]}`), false, "waypoint 1 invalid: (95, 8)"},
		{"trip negative weight", trip, tripBody(t, h, 2, eis.TripOfferingRequest{Weights: eis.WeightsJSON{L: -1}}), false, "cknn: negative weight {L:-1 A:0 D:0}"},
		{"trip not JSON", trip, []byte(`{{{`), false, "decoding request: invalid character '{' looking for beginning of object key string"},
		{"trip empty body", trip, []byte{}, false, "decoding request: EOF"},
		{"trip wrong type", trip, []byte(`{"k":"five"}`), false, "decoding request: json: cannot unmarshal string into Go struct field TripOfferingRequest.k of type int"},
		{"trip depart at the edge", trip, edgeTrip, false, "depart " + early + " is out of range: a time must lie a year inside years 0000-9999 in every zone"},
		{"trip depart at the edge, binary", trip, wireTrip(t, edgeTrip), true, "decoding request: wire: timestamp -62167269540 outside the JSON-renderable year range at offset 52"},
		{"trip truncated", trip, wireTrip(t, tripBody(t, h, 2, eis.TripOfferingRequest{}))[:20], true, "decoding request: wire: length prefix 2 exceeds payload"},
		{"offering defaults", offering, offeringBody(t, eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, Now: fixedNow}), false, ""},
		{"offering in the binary form", offering, wireOffering(eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, K: 4, Now: fixedNow}), true, ""},
		{"offering now at the edge", offering, at("now", early), false, "now " + early + " is out of range: a time must lie a year inside years 0000-9999 in every zone"},
		{"offering eta at the edge", offering, at("eta", late), false, "eta " + late + " is out of range: a time must lie a year inside years 0000-9999 in every zone"},
		{"offering eta within a year of the edge", offering, at("eta", "9999-06-01T00:00:00Z"), false, "eta 9999-06-01T00:00:00Z is out of range: a time must lie a year inside years 0000-9999 in every zone"},
		{"offering now at the edge, binary", offering, wireOffering(eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, Now: earlyT}), true, "decoding request: wire: timestamp -62167269540 outside the JSON-renderable year range at offset 68"},
		{"offering bad weights", offering, offeringBody(t, eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, Weights: eis.WeightsJSON{L: -1}, Now: fixedNow}), false, "cknn: negative weight {L:-1 A:0 D:0}"},
		{"offering off the globe", offering, offeringBody(t, eis.OfferingRequest{Lat: 95, Lon: center.Lon}), false, "invalid location (95, " + fmtFloat(center.Lon) + ")"},
		{"offering not JSON", offering, []byte(`{{{`), false, "decoding request: invalid character '{' looking for beginning of object key string"},
		{"offering truncated", offering, wireOffering(eis.OfferingRequest{Lat: center.Lat})[:10], true, "decoding request: wire: truncated message: need 8 bytes at offset 3, have 7"},
		{"chargers", chargers + "?lat=53.03&lon=8.06&radius_m=3000", nil, false, ""},
		{"chargers missing", chargers + "?lat=53.03&radius_m=3000", nil, false, `missing parameter "lon"`},
		{"chargers NaN", chargers + "?lat=NaN&lon=8.06&radius_m=3000", nil, false, `parameter "lat" is not a finite number`},
		{"chargers off the globe", chargers + "?lat=95&lon=8.06&radius_m=3000", nil, false, "invalid location or radius"},
		{"chargers negative radius", chargers + "?lat=53.03&lon=8.06&radius_m=-5", nil, false, "invalid location or radius"},
		{"traffic bad t", traffic + "?t=garbage", nil, false, `parameter "t" is not RFC3339: parsing time "garbage" as "2006-01-02T15:04:05Z07:00": cannot parse "garbage" as "2006"`},
	} {
		method, contentType := http.MethodGet, eis.ContentTypeJSON
		if tc.body != nil {
			method = http.MethodPost
		}
		if tc.wire {
			contentType = wire.ContentType
		}
		exchanges := met.shardRequests.Value()
		status, body, header := sendAs(t, h.gwts.URL, method, tc.pathq, tc.body, contentType, "")
		asked := met.shardRequests.Value() - exchanges
		single, singleBody, _ := sendAs(t, h.single.URL, method, tc.pathq, tc.body, contentType, "")
		if status != single || !bytes.Equal(body, singleBody) || header.Get(degradedHeader) != "" {
			t.Errorf("%s: the gateway answered %d %q %.300s\na single EIS %d %.300s", tc.name, status, header.Get(degradedHeader), body, single, singleBody)
			continue
		}
		wantStatus, wantBody := http.StatusOK, ""
		if tc.want400 != "" {
			b, _ := json.Marshal(eis.ErrorResponse{Error: tc.want400})
			wantStatus, wantBody = http.StatusBadRequest, string(b)+"\n"
			// A request nobody can resolve is answered in front, in a shard's words.
			if asked != 0 {
				t.Errorf("%s: the gateway asked its shards %d times about a request it refuses", tc.name, asked)
			}
		}
		if status != wantStatus || (wantBody != "" && string(body) != wantBody) {
			t.Errorf("%s: answered %d %s, want %d %s", tc.name, status, body, wantStatus, wantBody)
		}
	}
}

// TestTripWaypointCap: one waypoint over the cap of 256 is the same 400
// from a shard and through the gateway, answered before anything is snapped
// or routed; the cap itself still routes.
func TestTripWaypointCap(t *testing.T) {
	h := newFleetHarness(t, harnessOpts{n: 3})
	const pathq = eis.APIVersion + "/offering/trip"
	searches := obs.Default().Counter("roadnet_pool_acquires_total")

	before := searches.Value()
	over := tripBody(t, h, 257, eis.TripOfferingRequest{})
	h.assertIdentical("over the cap", http.MethodPost, pathq, over)
	status, body, _ := doReq(t, h.gwts.URL, http.MethodPost, pathq, over)
	if want := `{"error":"need at most 256 waypoints, got 257"}` + "\n"; status != http.StatusBadRequest || string(body) != want {
		t.Fatalf("257 waypoints answered %d %s, want 400 %s", status, body, want)
	}
	if n := searches.Value() - before; n != 0 {
		t.Fatalf("%d road searches ran for requests over the cap", n)
	}

	at := tripBody(t, h, 256, eis.TripOfferingRequest{ReuseDistM: 1})
	if status, body, _ := doReq(t, h.gwts.URL, http.MethodPost, pathq, at); status != http.StatusOK {
		t.Fatalf("256 waypoints answered %d %s", status, body)
	}
}

// TestFleetOfferingParsesLikeAShard: the gateway reads a JSON offering with a
// shard's own parser (eis.DecodeOffering), which stops after the first
// JSON value. A body that asks for k = 5 with a second value after it is a
// five-entry table from a single EIS, and from the gateway too.
func TestFleetOfferingParsesLikeAShard(t *testing.T) {
	h := newFleetHarness(t, harnessOpts{n: 3})
	center := h.env.Graph.Bounds().Center()
	body := offeringBody(t, eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, K: 5, RadiusM: 50000, Now: fixedNow})
	body = append(body, " {}"...)
	const pathq = eis.APIVersion + "/offering"
	h.assertIdentical("offering with a trailing value", http.MethodPost, pathq, body)
	_, got, _ := doReq(t, h.gwts.URL, http.MethodPost, pathq, body)
	var resp eis.OfferingResponse
	if err := json.Unmarshal(got, &resp); err != nil || len(resp.Entries) != 5 {
		t.Fatalf("the gateway answered %d entries (%v), want 5", len(resp.Entries), err)
	}
}

// TestFleetJSONOfferingCrossesAsWire: a JSON offering the gateway has read
// and resolved reaches every shard in the binary form, on a miss and on a
// hit alike, and the answer stays the single EIS's to the byte. One it
// cannot resolve or read reaches no shard: the gateway refuses it in front.
func TestFleetJSONOfferingCrossesAsWire(t *testing.T) {
	h := newFleetHarness(t, harnessOpts{n: 3})
	wireRequests := obs.Default().Counter("eis_requests_wire_total")
	center := h.env.Graph.Bounds().Center()
	const pathq = eis.APIVersion + "/offering"
	for _, tc := range []struct {
		name     string
		body     []byte
		wantWire uint64
	}{
		{"miss", offeringBody(t, eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, K: 4, RadiusM: 6000, Now: fixedNow}), 3},
		{"hit", offeringBody(t, eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, K: 4, RadiusM: 6000, Now: fixedNow}), 3},
		{"time left to the shards", offeringBody(t, eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon}), 3},
		{"bad weights", offeringBody(t, eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, Weights: eis.WeightsJSON{L: -1}, Now: fixedNow}), 0},
		{"not JSON", []byte(`{{{`), 0},
	} {
		before := wireRequests.Value()
		// The gateway is asked first: the single EIS gets JSON, and counts none.
		h.assertIdentical(tc.name, http.MethodPost, pathq, tc.body)
		if got := wireRequests.Value() - before; got != tc.wantWire {
			t.Errorf("%s: %d shard requests arrived in the binary form, want %d", tc.name, got, tc.wantWire)
		}
	}
}
