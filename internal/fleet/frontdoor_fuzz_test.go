package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ecocharge/internal/eis"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/wire"
)

// FuzzGatewayFrontDoor: whatever body a client posts to /offering or
// /offering/trip, as JSON or in the binary form, the gateway answers with the
// status a single EIS over the whole inventory answers with, and a 4xx in the
// same bytes: it reads and refuses requests in front, with the shards' own
// parser and resolvers. The one exception is what only a gateway may write, a
// travel block or a route in a client's request, which the gateway refuses
// with its own 400 (errGatewaysToSend) where a single EIS takes it.
func FuzzGatewayFrontDoor(f *testing.F) {
	h := newFleetHarness(f, harnessOpts{n: 3})
	h.gw.ProbeAll(context.Background())
	for _, seed := range frontDoorSeeds(f, h) {
		f.Add(seed.trip, seed.wire, seed.body)
	}
	f.Fuzz(func(t *testing.T, trip, wireBody bool, body []byte) {
		pathq, contentType := eis.APIVersion+"/offering", eis.ContentTypeJSON
		if trip {
			pathq = eis.APIVersion + "/offering/trip"
		}
		if wireBody {
			contentType = wire.ContentType
		}
		status, got, _ := sendAs(t, h.gwts.URL, http.MethodPost, pathq, body, contentType, "")
		if status == http.StatusBadRequest && bytes.Contains(got, []byte("is the gateway's to send")) {
			if !carriesGatewaysWord(trip, contentType, body) {
				t.Fatalf("refused as a gateway's request, but carries no block or route: %.300s", got)
			}
			return
		}
		single, want, _ := sendAs(t, h.single.URL, http.MethodPost, pathq, body, contentType, "")
		if status != single {
			t.Fatalf("the gateway answered %d %.300s\na single EIS %d %.300s", status, got, single, want)
		}
		if status >= 400 && status < 500 && !bytes.Equal(got, want) {
			t.Fatalf("the gateway refused in other words\ngateway: %.300s\nsingle:  %.300s", got, want)
		}
	})
}

// carriesGatewaysWord reports whether a request decodes with a travel block
// or a route.
func carriesGatewaysWord(trip bool, contentType string, body []byte) bool {
	if trip {
		var req eis.TripOfferingRequest
		return eis.DecodeTrip(contentType, body, &req) == nil && (req.Route != nil || req.Travel != nil)
	}
	var req eis.OfferingRequest
	return eis.DecodeOffering(contentType, body, &req) == nil && req.Travel != nil
}

type frontDoorSeed struct {
	trip, wire bool
	body       []byte
}

// frontDoorSeeds are internal/wire's checked-in decode corpus, sent to both
// endpoints, and one request of every shape the two endpoints read: JSON and
// binary, defaulted and refused, with a block or a route.
func frontDoorSeeds(f *testing.F, h *fleetHarness) []frontDoorSeed {
	var seeds []frontDoorSeed
	files, err := filepath.Glob(filepath.Join("..", "wire", "testdata", "fuzz", "FuzzWireDecode", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for _, file := range files {
		for _, body := range corpusBytes(f, file) {
			seeds = append(seeds, frontDoorSeed{false, true, body}, frontDoorSeed{true, true, body})
		}
	}

	center := h.env.Graph.Bounds().Center()
	offering := eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, K: 4, RadiusM: 6000, Now: fixedNow}
	offeringJSON, err := json.Marshal(offering)
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds,
		frontDoorSeed{false, false, offeringJSON},
		frontDoorSeed{false, true, wire.AppendOfferingRequest(nil, &offering)},
		frontDoorSeed{false, false, []byte(`{"lat":95,"lon":8,"weights":{"l":-1}}`)},
		frontDoorSeed{false, false, []byte(`{"lat":53,"lon":8,"now":"0000-01-01T10:00:00+23:59"}`)},
		frontDoorSeed{false, false, []byte(`{{{`)},
	)
	// A block of one leg, an offering's, and of two, a trip segment's, on each
	// endpoint.
	oneLeg := func(b []byte) []byte {
		return wire.AppendTravelBlock(b, &wire.TravelBlock{ScaleLo: 1, ScaleHi: 1}, []roadnet.NodeID{0}, []float64{0}, nil)
	}
	twoLegs := func(b []byte) []byte {
		return wire.AppendTravelBlock(b, &wire.TravelBlock{Anchor: 0, Return: 1, ScaleLo: 1, ScaleHi: 1, TwoLegs: true},
			[]roadnet.NodeID{0}, []float64{0}, []float64{0})
	}
	seeds = append(seeds,
		frontDoorSeed{false, true, oneLeg(wire.AppendOfferingRequest(nil, &offering))},
		frontDoorSeed{false, true, twoLegs(wire.AppendOfferingRequest(nil, &offering))},
	)

	tripJSON := tripBody(f, h, 3, eis.TripOfferingRequest{K: 3, RadiusM: 4000, SegmentLenM: 1500, Depart: fixedNow})
	var trip eis.TripOfferingRequest
	if err := json.Unmarshal(tripJSON, &trip); err != nil {
		f.Fatal(err)
	}
	route, ok := h.env.Graph.ShortestPath(0, roadnet.NodeID(h.env.Graph.NumNodes()-1), roadnet.DistanceWeight)
	if !ok {
		f.Fatal("the test network does not route corner to corner")
	}
	seeds = append(seeds,
		frontDoorSeed{true, false, tripJSON},
		frontDoorSeed{true, true, wire.AppendTripRequest(nil, &trip)},
		frontDoorSeed{true, true, wire.AppendTravelBlock(wire.AppendTripRequest(nil, &trip),
			&wire.TravelBlock{Anchor: route.Nodes[0], Return: route.Nodes[1], ScaleLo: 1, ScaleHi: 1, TwoLegs: true},
			[]roadnet.NodeID{0}, []float64{0}, []float64{0})},
		frontDoorSeed{true, true, oneLeg(wire.AppendTripRequest(nil, &trip))},
		frontDoorSeed{true, false, []byte(`{"waypoints":[{"lat":53.02,"lon":8.02}]}`)},
	)
	trip.Route = route.Nodes
	return append(seeds, frontDoorSeed{true, true, wire.AppendTripRequest(nil, &trip)})
}

// corpusBytes reads the []byte values of one file of a fuzz corpus in the
// go test fuzz v1 encoding.
func corpusBytes(f *testing.F, file string) [][]byte {
	data, err := os.ReadFile(file)
	if err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for _, line := range strings.Split(string(data), "\n")[1:] {
		if quoted, ok := strings.CutPrefix(line, "[]byte("); ok {
			s, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
			if err != nil {
				f.Fatalf("%s: %v", file, err)
			}
			out = append(out, []byte(s))
		}
	}
	return out
}
