package eis

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/ec"
	"ecocharge/internal/geo"
	"ecocharge/internal/roadnet"
)

var fixedNow = time.Date(2024, 6, 18, 9, 30, 0, 0, time.UTC)

func testEnv(t testing.TB) *cknn.Env {
	t.Helper()
	g := roadnet.GenerateUrban(roadnet.UrbanConfig{
		Origin: geo.Point{Lat: 53.0, Lon: 8.0}, WidthKM: 8, HeightKM: 6,
		SpacingM: 500, RemoveFrac: 0.05, JitterFrac: 0.2, ArterialEach: 5, Seed: 1,
	})
	avail := ec.NewAvailabilityModel(2)
	set, err := charger.Generate(g, avail, charger.GenConfig{N: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	env, err := cknn.NewEnv(g, set, ec.NewSolarModel(4), avail, ec.NewTrafficModel(5), cknn.EnvConfig{RadiusM: 8000})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func testServer(t testing.TB) (*httptest.Server, *Client, *cknn.Env) {
	t.Helper()
	env := testEnv(t)
	srv := NewServer(env, ServerOptions{Clock: func() time.Time { return fixedNow }})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL, ts.Client()), env
}

func TestHealthz(t *testing.T) {
	_, client, _ := testServer(t)
	if !client.Healthy(context.Background()) {
		t.Fatal("server not healthy")
	}
}

func TestChargersEndpoint(t *testing.T) {
	_, client, env := testServer(t)
	center := env.Graph.Bounds().Center()
	got, err := client.Chargers(context.Background(), center, 5000)
	if err != nil {
		t.Fatalf("Chargers: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("no chargers returned")
	}
	for _, c := range got {
		if d := geo.Distance(center, c.P); d > 5000 {
			t.Errorf("charger %d at %.0f m outside radius", c.ID, d)
		}
		if _, ok := env.Chargers.ByID(c.ID); !ok {
			t.Errorf("charger %d not in environment", c.ID)
		}
	}
}

func TestChargersBadParams(t *testing.T) {
	ts, _, _ := testServer(t)
	for _, u := range []string{
		"/api/v1/chargers", // missing all
		"/api/v1/chargers?lat=abc&lon=8&radius_m=100", // non-numeric
		"/api/v1/chargers?lat=95&lon=8&radius_m=100",  // out of range
		"/api/v1/chargers?lat=53&lon=8&radius_m=-5",   // negative radius
		"/api/v1/chargers?lat=NaN&lon=8&radius_m=100", // NaN
	} {
		resp, err := http.Get(ts.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", u, resp.StatusCode)
		}
	}
}

func TestWeatherAndAvailabilityEndpoints(t *testing.T) {
	_, client, env := testServer(t)
	ctx := context.Background()
	id := env.Chargers.All()[0].ID
	at := fixedNow.Add(time.Hour)

	w, err := client.Weather(ctx, id, at)
	if err != nil {
		t.Fatalf("Weather: %v", err)
	}
	if w.ChargerID != id || !w.At.Equal(at) {
		t.Errorf("weather echo wrong: %+v", w)
	}
	if iv := w.ProductionKW.Interval(); !iv.Valid() || iv.Min < 0 {
		t.Errorf("production interval invalid: %+v", w.ProductionKW)
	}

	a, err := client.Availability(ctx, id, at)
	if err != nil {
		t.Fatalf("Availability: %v", err)
	}
	iv := a.Availability.Interval()
	if iv.Min < 0 || iv.Max > 1 {
		t.Errorf("availability out of range: %+v", a.Availability)
	}

	if _, err := client.Weather(ctx, 99999, at); err == nil {
		t.Error("unknown charger accepted")
	} else if !strings.Contains(err.Error(), "not found") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestTrafficEndpoint(t *testing.T) {
	_, client, _ := testServer(t)
	resp, err := client.Traffic(context.Background(), fixedNow.Add(30*time.Minute))
	if err != nil {
		t.Fatalf("Traffic: %v", err)
	}
	if len(resp.Multiplier) != 4 {
		t.Fatalf("got %d classes, want 4", len(resp.Multiplier))
	}
	for class, iv := range resp.Multiplier {
		if iv.Min < 1 {
			t.Errorf("class %s multiplier %v below free flow", class, iv)
		}
	}
}

func TestOfferingMode2(t *testing.T) {
	_, client, env := testServer(t)
	center := env.Graph.Bounds().Center()
	req := OfferingRequest{
		Lat: center.Lat, Lon: center.Lon, K: 3, RadiusM: 8000,
		Now: fixedNow, ETA: fixedNow.Add(10 * time.Minute),
	}
	resp, err := client.Offering(context.Background(), req)
	if err != nil {
		t.Fatalf("Offering: %v", err)
	}
	if len(resp.Entries) != 3 {
		t.Fatalf("got %d entries, want 3", len(resp.Entries))
	}
	if resp.Cached {
		t.Error("first request served from cache")
	}
	for _, e := range resp.Entries {
		if _, ok := env.Chargers.ByID(e.ChargerID); !ok {
			t.Errorf("unknown charger %d in response", e.ChargerID)
		}
		sc := e.SC.Interval()
		if !sc.Valid() || sc.Max > 1.001 || sc.Min < -0.001 {
			t.Errorf("SC out of range: %+v", e.SC)
		}
		if e.ETA.Before(req.ETA) {
			t.Errorf("charger ETA before anchor ETA")
		}
	}
	// The server must agree with a local (Mode 1) computation.
	node := env.Graph.NearestNode(center)
	local := cknn.NewEcoCharge(env, cknn.EcoChargeOptions{RadiusM: 8000}).Rank(cknn.Query{
		Anchor: center, AnchorNode: node, ReturnNode: node,
		Now: fixedNow, ETABase: fixedNow.Add(10 * time.Minute),
		K: 3, RadiusM: 8000,
	})
	localIDs := local.IDs()
	for i, e := range resp.Entries {
		if e.ChargerID != localIDs[i] {
			t.Errorf("rank %d: server %d vs local %d", i, e.ChargerID, localIDs[i])
		}
	}
}

func TestOfferingServerCache(t *testing.T) {
	_, client, env := testServer(t)
	center := env.Graph.Bounds().Center()
	req := OfferingRequest{Lat: center.Lat, Lon: center.Lon, K: 3, RadiusM: 8000, Now: fixedNow}
	first, err := client.Offering(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.Offering(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("repeated request not served from cache")
	}
	if len(first.Entries) != len(second.Entries) {
		t.Error("cached response differs")
	}
	// A nearby point within the same cache cell also hits.
	req2 := req
	req2.Lat += 0.001 // ~110 m
	third, err := client.Offering(context.Background(), req2)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached {
		t.Error("same-cell request missed the cache")
	}
	// A different K is a different cache key.
	req3 := req
	req3.K = 5
	fourth, err := client.Offering(context.Background(), req3)
	if err != nil {
		t.Fatal(err)
	}
	if fourth.Cached {
		t.Error("different K hit the cache")
	}
}

func TestOfferingValidation(t *testing.T) {
	ts, _, _ := testServer(t)
	cases := map[string]string{
		"bad json":    `{`,
		"bad lat":     `{"lat": 95, "lon": 8}`,
		"neg weights": `{"lat": 53, "lon": 8, "weights": {"l": -1, "a": 1, "d": 1}}`,
	}
	for name, body := range cases {
		resp, err := http.Post(ts.URL+"/api/v1/offering", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/api/v1/offering")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET offering: status %d, want 405", resp.StatusCode)
	}
}

func TestMode3EdgeComputation(t *testing.T) {
	// Mode 3: pull charger data from the EIS, build a local environment on
	// the edge device, compute the table locally, and verify it matches the
	// server's Mode 2 answer for the same query.
	_, client, env := testServer(t)
	ctx := context.Background()
	center := env.Graph.Bounds().Center()

	pulled, err := client.Chargers(ctx, center, 100000)
	if err != nil {
		t.Fatal(err)
	}
	set, err := charger.NewSet(pulled)
	if err != nil {
		t.Fatal(err)
	}
	// The edge device shares the road network and model seeds with the
	// server (they come from the same EIS distribution).
	edgeEnv, err := cknn.NewEnv(env.Graph, set, env.Solar, env.Avail, env.Traffic, cknn.EnvConfig{RadiusM: 8000})
	if err != nil {
		t.Fatal(err)
	}
	node := edgeEnv.Graph.NearestNode(center)
	local := cknn.NewEcoCharge(edgeEnv, cknn.EcoChargeOptions{RadiusM: 8000}).Rank(cknn.Query{
		Anchor: center, AnchorNode: node, ReturnNode: node,
		Now: fixedNow, ETABase: fixedNow, K: 3, RadiusM: 8000,
	})
	remote, err := client.Offering(ctx, OfferingRequest{
		Lat: center.Lat, Lon: center.Lon, K: 3, RadiusM: 8000, Now: fixedNow,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(local.Entries) != len(remote.Entries) {
		t.Fatalf("local %d vs remote %d entries", len(local.Entries), len(remote.Entries))
	}
	for i := range local.Entries {
		if local.Entries[i].Charger.ID != remote.Entries[i].ChargerID {
			t.Errorf("rank %d: local %d vs remote %d", i,
				local.Entries[i].Charger.ID, remote.Entries[i].ChargerID)
		}
	}
}

func TestClientErrorPaths(t *testing.T) {
	// A server that always 500s without a JSON body.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	if _, err := client.Traffic(context.Background(), fixedNow); err == nil {
		t.Error("HTTP 500 not surfaced")
	}
	if client.Healthy(context.Background()) {
		t.Error("unhealthy server reported healthy")
	}
	// Unreachable server.
	dead := NewClient("http://127.0.0.1:1", &http.Client{Timeout: 200 * time.Millisecond})
	if _, err := dead.Chargers(context.Background(), geo.Point{Lat: 53, Lon: 8}, 100); err == nil {
		t.Error("unreachable server not surfaced")
	}
}

func TestParseTimeQuery(t *testing.T) {
	ts, _, env := testServer(t)
	id := env.Chargers.All()[0].ID
	u := ts.URL + "/api/v1/weather?charger=" + strconv.FormatInt(id, 10) + "&t=not-a-time"
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad time accepted: %d", resp.StatusCode)
	}
}

// TestChargerIDIsAnInteger pins the per-charger endpoints' charger
// parameter: a base-10 integer is looked up, anything else — a fraction that
// used to be truncated to a neighbour's ID, NaN, an exponent, an overflow —
// is a 400 with one fixed body.
func TestChargerIDIsAnInteger(t *testing.T) {
	ts, _, env := testServer(t)
	id := env.Chargers.All()[0].ID
	known := strconv.FormatInt(id, 10)
	const notInteger = `{"error":"parameter \"charger\" is not an integer charger ID"}` + "\n"
	const missing = `{"error":"missing parameter \"charger\""}` + "\n"
	for _, tc := range []struct {
		raw    string
		status int
		body   string // pinned when non-empty
	}{
		{known, http.StatusOK, ""},
		{"+" + known, http.StatusOK, ""},
		{"00" + known, http.StatusOK, ""},
		{"999999", http.StatusNotFound, ""},
		{"-3", http.StatusNotFound, ""},
		{"", http.StatusBadRequest, missing},
		{known + ".9", http.StatusBadRequest, notInteger},
		{known + ".0", http.StatusBadRequest, notInteger},
		{"NaN", http.StatusBadRequest, notInteger},
		{"Inf", http.StatusBadRequest, notInteger},
		{"1e3", http.StatusBadRequest, notInteger},
		{"0x10", http.StatusBadRequest, notInteger},
		{"1_000", http.StatusBadRequest, notInteger},
		{" " + known, http.StatusBadRequest, notInteger},
		{"9223372036854775808", http.StatusBadRequest, notInteger},
		{"abc", http.StatusBadRequest, notInteger},
	} {
		for _, endpoint := range []string{"/weather", "/availability"} {
			resp, err := http.Get(ts.URL + APIVersion + endpoint + "?charger=" + url.QueryEscape(tc.raw))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status || (tc.body != "" && string(body) != tc.body) {
				t.Errorf("%s?charger=%q: status %d body %q, want %d %q", endpoint, tc.raw, resp.StatusCode, body, tc.status, tc.body)
			}
		}
	}
}
