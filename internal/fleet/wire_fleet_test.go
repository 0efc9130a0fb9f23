package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"ecocharge/internal/eis"
	"ecocharge/internal/fault"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/wire"
)

// TestChaosFleetWireShardByteIdentity: every gateway↔shard exchange asks for
// the binary format, and the JSON a client sees must still be byte-identical
// to a single EIS over the whole inventory. The decode counters prove the
// exchanges actually travelled binary rather than silently falling back.
func TestChaosFleetWireShardByteIdentity(t *testing.T) {
	wireBefore := met.decodeWire.Count()
	h := newFleetHarness(t, harnessOpts{n: 3})
	center := h.env.Graph.Bounds().Center()
	at := fixedNow.Add(time.Hour).Format(time.RFC3339)

	for _, radius := range []float64{1, 3000, 50000} {
		pathq := eis.APIVersion + "/chargers?lat=" + fmtFloat(center.Lat) + "&lon=" + fmtFloat(center.Lon) + "&radius_m=" + fmtFloat(radius)
		h.assertIdentical("chargers", http.MethodGet, pathq, nil)
	}

	// Point lookups and traffic are pass-through: the gateway forwards the
	// client's Accept, so a JSON client gets JSON straight off the shard.
	all := h.env.Chargers.All()
	probe := all[0]
	for _, c := range all {
		if h.part.ShardOf(c.ID) == 1 {
			probe = c
			break
		}
	}
	q := "?charger=" + fmt.Sprint(probe.ID) + "&t=" + at
	h.assertIdentical("weather", http.MethodGet, eis.APIVersion+"/weather"+q, nil)
	h.assertIdentical("availability", http.MethodGet, eis.APIVersion+"/availability"+q, nil)
	h.assertIdentical("traffic", http.MethodGet, eis.APIVersion+"/traffic?t="+at, nil)

	// Offering: fresh then cache-hit, both byte-identical even though the
	// shard legs carried binary tables.
	body := offeringBody(t, eis.OfferingRequest{
		Lat: center.Lat, Lon: center.Lon, K: 4, RadiusM: 5000,
		Weights: eis.WeightsJSON{L: 2, A: 1, D: 1}, Now: fixedNow,
	})
	h.assertIdentical("offering", http.MethodPost, eis.APIVersion+"/offering", body)
	h.assertIdentical("offering cached", http.MethodPost, eis.APIVersion+"/offering", body)
	// Errors pass through as JSON regardless of the shard plane's format.
	h.assertIdentical("offering bad weights", http.MethodPost, eis.APIVersion+"/offering",
		offeringBody(t, eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, Weights: eis.WeightsJSON{L: -1}, Now: fixedNow}))

	if met.decodeWire.Count() == wireBefore {
		t.Fatal("the gateway never decoded a binary shard response — the exchanges fell back to JSON")
	}
}

// wireOffering asks the gateway for a binary Offering Table and returns it
// re-rendered as the JSON a single EIS frames (Encoder newline).
func wireOffering(t *testing.T, h *fleetHarness, body []byte) []byte {
	t.Helper()
	status, respBody, hdr := doReqAccept(t, h.gwts.URL, http.MethodPost, eis.APIVersion+"/offering", body, wire.ContentType)
	if status != http.StatusOK {
		t.Fatalf("status %d: %.200s", status, respBody)
	}
	if ct := hdr.Get("Content-Type"); !wire.IsWire(ct) {
		t.Fatalf("gateway ignored the binary negotiation: Content-Type %q", ct)
	}
	var got eis.OfferingResponse
	if err := wire.DecodeOfferingResponse(respBody, &got); err != nil {
		t.Fatalf("decoding gateway binary response: %v", err)
	}
	rendered, err := json.Marshal(&got)
	if err != nil {
		t.Fatal(err)
	}
	return append(rendered, '\n')
}

// TestChaosFleetWireClientNegotiation asks the gateway itself for binary:
// the decoded table must match the single EIS answer.
func TestChaosFleetWireClientNegotiation(t *testing.T) {
	h := newFleetHarness(t, harnessOpts{n: 3})
	center := h.env.Graph.Bounds().Center()
	body := offeringBody(t, eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, K: 5, RadiusM: 6000, Now: fixedNow})

	_, singleBody, _ := doReq(t, h.single.URL, http.MethodPost, eis.APIVersion+"/offering", body)
	if got := wireOffering(t, h, body); !bytes.Equal(got, singleBody) {
		t.Fatalf("binary gateway table differs from single EIS\nwire:   %.400s\nsingle: %.400s", got, singleBody)
	}
}

// TestChaosFleetWireBlackoutSynth kills one shard: the synthesized
// ignorance-bound entries must merge into the binary shard tables the same
// way for a JSON client and a binary one.
func TestChaosFleetWireBlackoutSynth(t *testing.T) {
	h := newFleetHarness(t, harnessOpts{
		n: 3,
		shapes: func(hosts []string) map[string]fault.ShardShape {
			return map[string]fault.ShardShape{hosts[1]: {Blackouts: blackoutForever}}
		},
	})
	ctx := context.Background()
	h.gw.ProbeAll(ctx) // tick 0: healthy — inventories cached
	h.inj.Advance(1)   // shard 1 goes dark
	h.gw.ProbeAll(ctx)
	h.gw.ProbeAll(ctx) // two failed probe rounds trip the breaker
	center := h.env.Graph.Bounds().Center()
	body := offeringBody(t, eis.OfferingRequest{
		Lat: center.Lat, Lon: center.Lon, K: 4, RadiusM: 5000, Now: fixedNow,
	})
	status, jsonBody, hdr := doReq(t, h.gwts.URL, http.MethodPost, eis.APIVersion+"/offering", body)
	if status != http.StatusOK {
		t.Fatalf("blackout offering: status %d: %.200s", status, jsonBody)
	}
	if hdr.Get(degradedHeader) == "" {
		t.Fatal("blackout response not marked shard-degraded")
	}
	if !bytes.Contains(jsonBody, []byte(`"degraded":`)) {
		t.Fatalf("no entry of the dead shard was synthesized: %.400s", jsonBody)
	}
	// The binary request comes second and hits the live shards' caches: the
	// planes are compared modulo the flag.
	var viaJSON, viaWire eis.OfferingResponse
	if err := json.Unmarshal(jsonBody, &viaJSON); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wireOffering(t, h, body), &viaWire); err != nil {
		t.Fatal(err)
	}
	viaJSON.Cached, viaWire.Cached = false, false
	jb, _ := json.Marshal(&viaJSON)
	wb, _ := json.Marshal(&viaWire)
	if !bytes.Equal(jb, wb) {
		t.Fatalf("blackout synthesis differs between client planes\njson: %.400s\nwire: %.400s", jb, wb)
	}
}

// TestChaosFleetTripAnswersWire: a client that asks the gateway for a trip in
// the binary format gets it, byte for byte what a single EIS answers the same
// request with.
func TestChaosFleetTripAnswersWire(t *testing.T) {
	h := newFleetHarness(t, harnessOpts{n: 3})
	h.gw.ProbeAll(context.Background())
	a := h.env.Graph.Node(0).P
	b := h.env.Graph.Node(roadnet.NodeID(h.env.Graph.NumNodes() - 1)).P
	trip, err := json.Marshal(eis.TripOfferingRequest{
		Waypoints: []eis.LatLon{{Lat: a.Lat, Lon: a.Lon}, {Lat: b.Lat, Lon: b.Lon}},
		Depart:    fixedNow, K: 3, RadiusM: 4000, ReuseDistM: 1, SegmentLenM: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	pathq := eis.APIVersion + "/offering/trip"
	gs, gb, gh := doReqAccept(t, h.gwts.URL, http.MethodPost, pathq, trip, wire.ContentType)
	ss, sb, sh := doReqAccept(t, h.single.URL, http.MethodPost, pathq, trip, wire.ContentType)
	if gs != http.StatusOK || ss != http.StatusOK {
		t.Fatalf("trip asked for in binary: gateway %d, single EIS %d: %.200s", gs, ss, gb)
	}
	if gct, sct := gh.Get("Content-Type"), sh.Get("Content-Type"); gct != sct || !wire.IsWire(sct) {
		t.Fatalf("trip asked for in binary: gateway answers %q, single EIS %q", gct, sct)
	}
	if !bytes.Equal(gb, sb) {
		t.Fatalf("binary trips differ: gateway %d B, single EIS %d B", len(gb), len(sb))
	}
}
