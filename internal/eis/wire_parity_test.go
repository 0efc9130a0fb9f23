package eis

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"testing"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/fault"
	"ecocharge/internal/wire"
)

// wireGet performs one GET with the binary format negotiated and returns the
// body after asserting the wire content type and an exact Content-Length.
func wireGet(t *testing.T, url string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", wire.ContentType)
	return doWire(t, req)
}

func doWire(t *testing.T, req *http.Request) []byte {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d: %.200s", req.Method, req.URL, resp.StatusCode, buf.Bytes())
	}
	if ct := resp.Header.Get("Content-Type"); !wire.IsWire(ct) {
		t.Fatalf("%s: negotiated binary but got Content-Type %q", req.URL, ct)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(buf.Len()) {
		t.Fatalf("%s: Content-Length %s, body is %d bytes", req.URL, cl, buf.Len())
	}
	return buf.Bytes()
}

func jsonGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %.200s", url, resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes()
}

// assertWireEqualsJSON decodes a binary body, re-renders it as JSON with the
// server's framing (Encoder newline), and requires byte equality with the
// JSON body the same endpoint served.
func assertWireEqualsJSON[T any](t *testing.T, label string, jsonBody, wireBody []byte, out *T, decode func([]byte, *T) error) {
	t.Helper()
	if err := decode(wireBody, out); err != nil {
		t.Fatalf("%s: decoding binary body: %v", label, err)
	}
	rendered, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	rendered = append(rendered, '\n')
	if !bytes.Equal(jsonBody, rendered) {
		t.Fatalf("%s: binary and JSON planes disagree\njson: %.400s\nwire: %.400s", label, jsonBody, rendered)
	}
}

// decodeChargers is wire.DecodeChargers in the shape assertWireEqualsJSON
// takes.
func decodeChargers(b []byte, out *[]charger.Charger) (err error) {
	*out, err = wire.DecodeChargers(b, nil)
	return err
}

// TestChaosWireFormatParity drives every wire-capable endpoint through both
// content types under a 30%% source-fault rate: the binary body, decoded and
// re-rendered as JSON, must be byte-identical to the JSON answer — degraded
// bits, cache flags, nulls, and timestamps included.
func TestChaosWireFormatParity(t *testing.T) {
	ts, _, env := chaosServer(t, fault.Config{Seed: 9, Rate: 0.3})
	base := ts.URL + APIVersion
	anchor := env.Graph.Bounds().Center()
	first := env.Chargers.All()[0]
	at := fixedNow.Format(time.RFC3339)

	q := fmt.Sprintf("?lat=%v&lon=%v&radius_m=5000", anchor.Lat, anchor.Lon)
	var cs []charger.Charger
	assertWireEqualsJSON(t, "chargers", jsonGet(t, base+"/chargers"+q), wireGet(t, base+"/chargers"+q), &cs, decodeChargers)
	if len(cs) == 0 {
		t.Fatal("chargers parity compared an empty radius")
	}

	var inv []charger.Charger
	assertWireEqualsJSON(t, "inventory", jsonGet(t, base+"/inventory"), wireGet(t, base+"/inventory"), &inv, decodeChargers)
	if len(inv) != len(env.Chargers.All()) {
		t.Fatalf("inventory decoded %d chargers, environment has %d", len(inv), len(env.Chargers.All()))
	}

	wq := fmt.Sprintf("?charger=%d&t=%s", first.ID, at)
	var wr WeatherResponse
	assertWireEqualsJSON(t, "weather", jsonGet(t, base+"/weather"+wq), wireGet(t, base+"/weather"+wq), &wr, wire.DecodeWeather)
	var ar AvailabilityResponse
	assertWireEqualsJSON(t, "availability", jsonGet(t, base+"/availability"+wq), wireGet(t, base+"/availability"+wq), &ar, wire.DecodeAvailability)

	// Traffic is JSON-only by design: negotiating binary must degrade to
	// JSON, not fail.
	tq := fmt.Sprintf("?t=%s", at)
	req, err := http.NewRequest(http.MethodGet, base+"/traffic"+tq, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || wire.IsWire(resp.Header.Get("Content-Type")) {
		t.Fatalf("traffic with wire Accept: status %d, Content-Type %q; want JSON 200",
			resp.StatusCode, resp.Header.Get("Content-Type"))
	}
}

// TestChaosWireOfferingCacheParity pins the encode-once/write-many cache
// across formats: a fresh Mode 2 compute and its cache hits must agree
// byte-for-byte between JSON and binary clients, whichever format warmed
// the cache.
func TestChaosWireOfferingCacheParity(t *testing.T) {
	ts, _, env := chaosServer(t, fault.Config{Seed: 9, Rate: 0.3})
	url := ts.URL + APIVersion + "/offering"
	anchor := env.Chargers.All()[4].P
	oreq := OfferingRequest{Lat: anchor.Lat, Lon: anchor.Lon, K: 4, Now: fixedNow}
	body, err := json.Marshal(oreq)
	if err != nil {
		t.Fatal(err)
	}

	post := func(accept, contentType string, reqBody []byte) (OfferingResponse, []byte) {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("offering: status %d: %.200s", resp.StatusCode, buf.Bytes())
		}
		var out OfferingResponse
		if wire.IsWire(resp.Header.Get("Content-Type")) {
			if accept == "" {
				t.Fatal("offering: got binary without asking for it")
			}
			if err := wire.DecodeOfferingResponse(buf.Bytes(), &out); err != nil {
				t.Fatalf("offering: decoding binary body: %v", err)
			}
		} else if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
			t.Fatalf("offering: decoding JSON body: %v", err)
		}
		return out, buf.Bytes()
	}

	fresh, freshBody := post("", "application/json", body)
	if fresh.Cached {
		t.Fatal("first compute claims to be cached")
	}
	if len(fresh.Entries) == 0 {
		t.Fatal("offering parity compared an empty table")
	}

	// Cache hits in both formats, JSON-warmed.
	jsonHit, jsonHitBody := post("", "application/json", body)
	wireHit, _ := post(wire.ContentType, "application/json", body)
	if !jsonHit.Cached || !wireHit.Cached {
		t.Fatalf("repeat requests not served from cache (json=%v wire=%v)", jsonHit.Cached, wireHit.Cached)
	}
	jb, err := json.Marshal(&wireHit)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonHitBody, append(jb, '\n')) {
		t.Fatalf("cached binary and JSON tables differ\njson: %.400s\nwire: %.400s", jsonHitBody, jb)
	}

	// The cached table must be the fresh table (modulo the Cached flag).
	hitNoFlag := jsonHit
	hitNoFlag.Cached = false
	hb, _ := json.Marshal(&hitNoFlag)
	fb, _ := json.Marshal(&fresh)
	if !bytes.Equal(hb, fb) {
		t.Fatalf("cache hit changed the table\nfresh: %.400s\nhit:   %.400s", fb, hb)
	}
	_ = freshBody

	// Binary Mode 2 request body (the wire client's POST) must hit the same
	// cache entry and produce the same table.
	wireReqBody := wire.AppendOfferingRequest(nil, &oreq)
	binReq, _ := post(wire.ContentType, wire.ContentType, wireReqBody)
	if !binReq.Cached {
		t.Fatal("binary request body missed the cache a JSON body warmed")
	}
	bb, _ := json.Marshal(&binReq)
	wb, _ := json.Marshal(&wireHit)
	if !bytes.Equal(bb, wb) {
		t.Fatalf("binary request body produced a different table\njson-req: %.400s\nwire-req: %.400s", wb, bb)
	}
}

// planePost sends body as contentType and returns the answer: binary, with
// doWire's checks, when wirePlane asks for it, JSON otherwise.
func planePost(t *testing.T, url, contentType string, body []byte, wirePlane bool) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if wirePlane {
		req.Header.Set("Accept", wire.ContentType)
		return doWire(t, req)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || wire.IsWire(ct) {
		t.Fatalf("POST %s as %q: %d %q: %.200s", url, contentType, resp.StatusCode, ct, buf.Bytes())
	}
	return buf.Bytes()
}

// TestChaosWireClientParity asks the same chaos server for the same Offering
// Tables on both planes, the way a JSON client and a binary one would — a
// JSON request answered in JSON, a binary request answered in binary:
// identical requests must return identical tables, and so must a radius
// query.
func TestChaosWireClientParity(t *testing.T) {
	ts, _, env := chaosServer(t, fault.Config{Seed: 9, Rate: 0.3})
	url := ts.URL + APIVersion + "/offering"
	all := env.Chargers.All()

	for i := 0; i < len(all); i += 16 {
		req := OfferingRequest{Lat: all[i].P.Lat, Lon: all[i].P.Lon, K: 3, Now: fixedNow}
		body, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		var jr, wr OfferingResponse
		if err := json.Unmarshal(planePost(t, url, ContentTypeJSON, body, false), &jr); err != nil {
			t.Fatal(err)
		}
		if err := wire.DecodeOfferingResponse(planePost(t, url, wire.ContentType, wire.AppendOfferingRequest(nil, &req), true), &wr); err != nil {
			t.Fatalf("offering %d: decoding binary body: %v", i, err)
		}
		// The second request is a cache hit; compare modulo the flag.
		jr.Cached, wr.Cached = false, false
		jb, _ := json.Marshal(&jr)
		wb, _ := json.Marshal(&wr)
		if !bytes.Equal(jb, wb) {
			t.Fatalf("planes disagree at anchor %d\njson: %.400s\nwire: %.400s", i, jb, wb)
		}
	}

	center := env.Graph.Bounds().Center()
	q := fmt.Sprintf("%s/chargers?lat=%v&lon=%v&radius_m=5000", ts.URL+APIVersion, center.Lat, center.Lon)
	var cs []charger.Charger
	assertWireEqualsJSON(t, "chargers", jsonGet(t, q), wireGet(t, q), &cs, decodeChargers)
}

// TestChaosWireTripParity asks one shard for the same trips on both planes,
// under a 30% source-fault rate: the binary answer decodes to the struct the
// JSON answer decodes to and re-marshals to the JSON answer's bytes —
// degraded bits, adapted flags, null tables and split points included —
// whether the request came as JSON or as a gateway's binary one with its
// travel blocks; and the JSON client decodes the JSON answer to the same.
func TestChaosWireTripParity(t *testing.T) {
	ts, client, env := chaosServer(t, fault.Config{Seed: 9, Rate: 0.3})
	url := ts.URL + APIVersion + "/offering/trip"
	b := env.Graph.Bounds()
	adapted, degraded, empty := 0, 0, 0
	for i, req := range []TripOfferingRequest{
		{K: 4, RadiusM: 8000, ReuseDistM: 2500, SegmentLenM: 1500, Weights: WeightsJSON{L: 2, A: 1, D: 1}},
		{K: 3, RadiusM: 50000, SegmentLenM: 4000},
		{K: 2, RadiusM: 300, ReuseDistM: 1, SegmentLenM: 2000}, // tables without a candidate
	} {
		req.Depart = fixedNow
		req.Waypoints = []LatLon{
			{Lat: b.Min.Lat + 0.005, Lon: b.Min.Lon + 0.005},
			{Lat: b.Center().Lat, Lon: b.Center().Lon},
			{Lat: b.Max.Lat - 0.005, Lon: b.Max.Lon - 0.005},
		}
		jsonReq, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		jsonBody := planePost(t, url, ContentTypeJSON, jsonReq, false)
		var viaJSON, viaWire TripOfferingResponse
		if err := json.Unmarshal(jsonBody, &viaJSON); err != nil {
			t.Fatal(err)
		}
		assertWireEqualsJSON(t, "trip", jsonBody, planePost(t, url, ContentTypeJSON, jsonReq, true), &viaWire, wire.DecodeTripResponse)
		if !reflect.DeepEqual(stripZones(&viaJSON), stripZones(&viaWire)) {
			t.Fatalf("trip %d: the planes decode to different answers\njson: %+v\nwire: %+v", i, viaJSON, viaWire)
		}
		// A gateway's request: binary, with the segments' searches.
		supplied := encodeTrip(&req, tripBlocksFor(t, env, &req))
		if got := planePost(t, url, wire.ContentType, supplied, false); !bytes.Equal(got, jsonBody) {
			t.Fatalf("trip %d: a binary request answered in JSON differs from the JSON request's answer", i)
		}
		assertWireEqualsJSON(t, "supplied trip", jsonBody, planePost(t, url, wire.ContentType, supplied, true), &TripOfferingResponse{}, wire.DecodeTripResponse)

		jr, err := client.TripOffering(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if jb, _ := json.Marshal(&jr); !bytes.Equal(append(jb, '\n'), jsonBody) {
			t.Fatalf("trip %d: the client decodes another answer\nclient: %.300s\nserver: %.300s", i, jb, jsonBody)
		}
		for _, seg := range viaWire.Segments {
			if seg.Adapted {
				adapted++
			}
			if seg.Entries == nil {
				empty++
			}
			for _, e := range seg.Entries {
				if e.Degraded != 0 {
					degraded++
				}
			}
		}
	}
	if adapted == 0 || degraded == 0 || empty == 0 {
		t.Fatalf("the trips had %d adapted segments, %d degraded entries and %d empty tables; the comparison wants some of each", adapted, degraded, empty)
	}
}

// stripZones rewrites every timestamp of a trip answer in UTC: two decoders
// give one instant under one offset two *time.Location values.
func stripZones(r *TripOfferingResponse) *TripOfferingResponse {
	for i := range r.Segments {
		r.Segments[i].ETA = r.Segments[i].ETA.UTC()
		for j := range r.Segments[i].Entries {
			r.Segments[i].Entries[j].ETA = r.Segments[i].Entries[j].ETA.UTC()
		}
	}
	return r
}
