package ecocharge

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/eis"
	"ecocharge/internal/experiment"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/trajectory"
)

// TestFullPipelineIntegration drives the whole system end to end across
// package boundaries: build a scenario, serialize and reload its world,
// evaluate a trip locally (Mode 1) and through the EIS (Mode 2), and
// map-match its sampled GPS stream back onto the network — all from the one
// scenario.
func TestFullPipelineIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow")
	}
	sc, err := experiment.BuildScenario("Oldenburg", 0.001, 7)
	if err != nil {
		t.Fatalf("BuildScenario: %v", err)
	}

	// 1. World serialization round trip: graph and chargers through their
	// codecs, rebuilt into an equivalent environment.
	var gbuf bytes.Buffer
	if err := sc.Graph.WriteCSV(&gbuf); err != nil {
		t.Fatalf("graph WriteCSV: %v", err)
	}
	graph2, err := roadnet.ReadCSV(&gbuf)
	if err != nil {
		t.Fatalf("graph ReadCSV: %v", err)
	}
	var cbuf bytes.Buffer
	if err := sc.Env.Chargers.WriteCSV(&cbuf); err != nil {
		t.Fatalf("chargers WriteCSV: %v", err)
	}
	rows, err := charger.ReadCSV(&cbuf)
	if err != nil {
		t.Fatalf("chargers ReadCSV: %v", err)
	}
	// CSV does not carry timetables; regenerate them from the model as the
	// data pipeline documents.
	for i := range rows {
		rows[i].Timetable = sc.Env.Avail.GenerateTimetable(rows[i].ID)
	}
	set2, err := charger.NewSet(rows)
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	env2, err := cknn.NewEnv(graph2, set2, sc.Env.Solar, sc.Env.Avail, sc.Env.Traffic, cknn.EnvConfig{RadiusM: 50000, Wind: sc.Env.Wind})
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}

	// 2. The reloaded world must rank like the original.
	trip := sc.Trips[0]
	opts := cknn.TripOptions{K: 3, SegmentLenM: 4000, RadiusM: 50000}
	orig := cknn.RunTrip(sc.Env, cknn.NewEcoCharge(sc.Env, cknn.EcoChargeOptions{}), trip, opts)
	reloaded := cknn.RunTrip(env2, cknn.NewEcoCharge(env2, cknn.EcoChargeOptions{}), trip, opts)
	if len(orig) != len(reloaded) {
		t.Fatalf("segment counts differ: %d vs %d", len(orig), len(reloaded))
	}
	for i := range orig {
		a, b := orig[i].Table.IDs(), reloaded[i].Table.IDs()
		if len(a) != len(b) {
			t.Fatalf("segment %d: %v vs %v", i, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("segment %d rank %d: %d vs %d", i, j, a[j], b[j])
			}
		}
	}

	// 3. The same trip through the EIS trip endpoint agrees on the top
	// charger of the first segment.
	server := httptest.NewServer(eis.NewServer(sc.Env, eis.ServerOptions{
		Clock: func() time.Time { return trip.Depart },
	}).Handler())
	defer server.Close()
	client := eis.NewClient(server.URL, server.Client())
	start := sc.Graph.Node(trip.Path.Nodes[0]).P
	end := sc.Graph.Node(trip.Path.Nodes[len(trip.Path.Nodes)-1]).P
	resp, err := client.TripOffering(context.Background(), eis.TripOfferingRequest{
		Waypoints: []eis.LatLon{{Lat: start.Lat, Lon: start.Lon}, {Lat: end.Lat, Lon: end.Lon}},
		Depart:    trip.Depart, K: 3, RadiusM: 50000, SegmentLenM: 4000,
	})
	if err != nil {
		t.Fatalf("TripOffering: %v", err)
	}
	if len(resp.Segments) == 0 || len(resp.Segments[0].Entries) == 0 {
		t.Fatal("EIS returned no recommendations")
	}
	if got, want := resp.Segments[0].Entries[0].ChargerID, orig[0].Table.IDs()[0]; got != want {
		t.Fatalf("EIS first pick %d differs from local %d", got, want)
	}

	// 4. Map-matching closes the loop: a sampled GPS stream of the trip
	// reconstructs a routable trip on the same network.
	tr := trajectory.Sample(sc.Graph, trip, 30*time.Second)
	matched := trajectory.MapMatch(sc.Graph, tr, trajectory.MatchConfig{})
	if len(matched) != 1 {
		t.Fatalf("map matching produced %d trips", len(matched))
	}
	if ratio := matched[0].Path.Weight / trip.Path.Weight; ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("matched length ratio %.2f", ratio)
	}
}
