package fleet

import (
	"encoding/json"
	"net/http"
	"testing"

	"ecocharge/internal/eis"
	"ecocharge/internal/obs"
	"ecocharge/internal/roadnet"
)

// tripBody is a trip request over n waypoints that alternate between two
// corners of the test network, every other field as given.
func tripBody(t *testing.T, h *fleetHarness, n int, req eis.TripOfferingRequest) []byte {
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

// TestFleetResolvesRequestsLikeAShard: the gateway and a shard read a trip
// and a /chargers request through the same resolvers (eis.ResolveTripOffering,
// eis.ChargersParams), so a defaulted request gets the same bytes from both
// and a malformed one the same 400, whose text is pinned here — for a trip
// from the gateway itself, which decodes and resolves it before the fan-out.
func TestFleetResolvesRequestsLikeAShard(t *testing.T) {
	h := newFleetHarness(t, harnessOpts{n: 3})
	const trip, chargers = eis.APIVersion + "/offering/trip", eis.APIVersion + "/chargers"
	for _, tc := range []struct {
		name, pathq string
		body        []byte
		want400     string // "" expects a 200
	}{
		// Only the waypoints and Q (adaptation is legitimately shard-local,
		// see sixMethodsIdentical): K, R, segment length, departure and
		// weights are the resolver's.
		{"trip defaults", trip, tripBody(t, h, 2, eis.TripOfferingRequest{ReuseDistM: 1}), ""},
		{"trip one waypoint", trip, tripBody(t, h, 1, eis.TripOfferingRequest{}), "need at least 2 waypoints, got 1"},
		{"trip bad waypoint", trip, []byte(`{"waypoints":[{"lat":53.02,"lon":8.02},{"lat":95,"lon":8}]}`), "waypoint 1 invalid: (95, 8)"},
		{"trip negative weight", trip, tripBody(t, h, 2, eis.TripOfferingRequest{Weights: eis.WeightsJSON{L: -1}}), "cknn: negative weight {L:-1 A:0 D:0}"},
		{"trip not JSON", trip, []byte(`{{{`), "decoding request: invalid character '{' looking for beginning of object key string"},
		{"trip empty body", trip, []byte{}, "decoding request: EOF"},
		{"trip wrong type", trip, []byte(`{"k":"five"}`), "decoding request: json: cannot unmarshal string into Go struct field TripOfferingRequest.k of type int"},
		{"chargers", chargers + "?lat=53.03&lon=8.06&radius_m=3000", nil, ""},
		{"chargers missing", chargers + "?lat=53.03&radius_m=3000", nil, `missing parameter "lon"`},
		{"chargers NaN", chargers + "?lat=NaN&lon=8.06&radius_m=3000", nil, `parameter "lat" is not a finite number`},
		{"chargers off the globe", chargers + "?lat=95&lon=8.06&radius_m=3000", nil, "invalid location or radius"},
		{"chargers negative radius", chargers + "?lat=53.03&lon=8.06&radius_m=-5", nil, "invalid location or radius"},
	} {
		method := http.MethodGet
		if tc.body != nil {
			method = http.MethodPost
		}
		exchanges := met.shardRequests.Value()
		h.assertIdentical(tc.name, method, tc.pathq, tc.body)
		status, body, _ := doReq(t, h.gwts.URL, method, tc.pathq, tc.body)
		// A trip nobody can resolve is answered in front, in a shard's words.
		if n := met.shardRequests.Value() - exchanges; tc.pathq == trip && tc.want400 != "" && n != 0 {
			t.Errorf("%s: the gateway asked its shards %d times about a request it cannot resolve", tc.name, n)
		}
		wantStatus, wantBody := http.StatusOK, ""
		if tc.want400 != "" {
			b, _ := json.Marshal(eis.ErrorResponse{Error: tc.want400})
			wantStatus, wantBody = http.StatusBadRequest, string(b)+"\n"
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
