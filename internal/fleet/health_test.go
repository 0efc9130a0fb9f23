package fleet

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"ecocharge/internal/cknn"
	"ecocharge/internal/eis"
	"ecocharge/internal/obs"
)

// TestFleetStatusStatesPartitionAndSearch: /fleet/status names each shard's
// partition of the gateway's world from the start, and whether the last
// probe the shard answered stated that world — searched only once a probe
// has, and no longer once the shard states another.
func TestFleetStatusStatesPartitionAndSearch(t *testing.T) {
	world := testEnv(t)
	envs := shardEnvs(t, world, 3)
	shards := make([]Shard, len(envs))
	for i, env := range envs {
		ts := httptest.NewServer(eis.NewServer(env, eis.ServerOptions{}).Handler())
		t.Cleanup(ts.Close)
		shards[i].URL = ts.URL
	}
	foreign := httptest.NewServer(eis.NewServer(selfSearching(envs[2]), eis.ServerOptions{}).Handler())
	t.Cleanup(foreign.Close)
	shards[2].URL = foreign.URL
	gw, err := NewGateway(shards, world, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, searched ...bool) {
		t.Helper()
		for i, st := range gw.Status() {
			if st.Inventory != envs[i].Chargers.Len() || st.Searched != searched[i] {
				t.Fatalf("%s: shard %d status %+v, want inventory %d, searched %v", when, i, st, envs[i].Chargers.Len(), searched[i])
			}
		}
	}
	check("before any probe", false, false, false)
	gw.ProbeAll(context.Background())
	check("after a probe", true, true, false)
}

// TestFleetProbeStatesTheWorld: shard 0 restarts into another road world
// between two probes, neither of which fails. The next probe reads the world
// it states, and the gateway stops searching for it: shard 0 searches for
// itself, and the answer is still a single EIS's. Back on the gateway's
// world, the next probe starts the search for it again.
func TestFleetProbeStatesTheWorld(t *testing.T) {
	world := testEnv(t)
	envs := shardEnvs(t, world, 3)
	f := newTravelFleet(t, envs, world)
	single := httptest.NewServer(eis.NewServer(world, eis.ServerOptions{}).Handler())
	t.Cleanup(single.Close)
	ref := &travelFleet{url: single.URL}
	otherRoads := longArcTwin(world, true)
	if !otherRoads.Graph.Symmetric() || otherRoads.RoadWorld() == world.RoadWorld() {
		t.Fatal("the twin is not an undirected graph of another road world")
	}
	foreign := eis.NewServer(shardEnvs(t, otherRoads, 3)[0], eis.ServerOptions{}).Handler()
	ctx := context.Background()

	center := world.Graph.Bounds().Center()
	// Each step asks a key of its own, a miss on every shard.
	for i, step := range []struct {
		name              string
		shard0            http.Handler
		searches, blocks  uint64
		searched0, probed bool
	}{
		{"the shards' world", nil, 1, 3, true, false},
		{"shard 0 on other roads", foreign, 2, 2, false, true},
		{"shard 0 back", eis.NewServer(envs[0], eis.ServerOptions{}).Handler(), 1, 3, true, true},
	} {
		if step.shard0 != nil {
			f.shards[0].set(step.shard0)
		}
		if step.probed {
			f.gw.ProbeAll(ctx)
		}
		if st := f.gw.Status()[0]; !st.ProbeOK || st.Searched != step.searched0 {
			t.Fatalf("%s: shard 0 status %+v, want searched %v", step.name, st, step.searched0)
		}
		req := eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, K: 5 + i, Weights: eis.WeightsJSON{L: 3, A: 1, D: 1}, Now: fixedNow}
		s0, b0 := kernelSearches(), met.travelSupplied.Value()
		got := f.post(t, &req, true)
		if s, b := kernelSearches()-s0, met.travelSupplied.Value()-b0; s != step.searches || b != step.blocks {
			t.Fatalf("%s: %d expansions and %d blocks, want %d and %d", step.name, s, b, step.searches, step.blocks)
		}
		if want := ref.post(t, &req, true); !bytes.Equal(got, want) {
			t.Fatalf("%s: the fleet differs from a single EIS\nfleet:  %.300s\nsingle: %.300s", step.name, got, want)
		}
	}
}

// TestFleetShardRefusesAnotherWorldsBlock: shard 0 restarts into another road
// world and is asked before the next probe, while the gateway still searches
// for it. The block the gateway sends names the gateway's world, so the shard
// refuses it, counts it rejected and searches for itself: two expansions,
// three blocks, one refused, and the bytes of a fleet whose gateway knew
// from the start that shard 0 was on other roads.
func TestFleetShardRefusesAnotherWorldsBlock(t *testing.T) {
	world := testEnv(t)
	envs := shardEnvs(t, world, 3)
	f := newTravelFleet(t, envs, world)
	otherRoads := shardEnvs(t, longArcTwin(world, true), 3)[0]
	f.shards[0].set(eis.NewServer(otherRoads, eis.ServerOptions{}).Handler())
	if st := f.gw.Status()[0]; !st.Searched {
		t.Fatalf("shard 0 status %+v before the next probe, want searched", st)
	}
	center := world.Graph.Bounds().Center()
	req := eis.OfferingRequest{Lat: center.Lat, Lon: center.Lon, K: 5, Weights: eis.WeightsJSON{L: 3, A: 1, D: 1}, Now: fixedNow}
	rejected := obs.Default().Counter("eis_travel_rejected_total")
	s0, b0, r0 := kernelSearches(), met.travelSupplied.Value(), rejected.Value()
	got := f.post(t, &req, true)
	if s, b, r := kernelSearches()-s0, met.travelSupplied.Value()-b0, rejected.Value()-r0; s != 2 || b != 3 || r != 1 {
		t.Fatalf("%d expansions, %d blocks sent and %d refused, want 2, 3 and 1", s, b, r)
	}
	probed := newTravelFleet(t, append([]*cknn.Env{otherRoads}, envs[1:]...), world)
	if st := probed.gw.Status()[0]; st.Searched {
		t.Fatalf("shard 0 status %+v on other roads after a probe, want not searched", st)
	}
	if want := probed.post(t, &req, true); !bytes.Equal(got, want) {
		t.Fatalf("the refused block changed the answer\nunprobed: %.300s\nprobed:   %.300s", got, want)
	}
}
