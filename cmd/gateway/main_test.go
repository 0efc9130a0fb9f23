package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ecocharge/internal/eis"
	"ecocharge/internal/experiment"
	"ecocharge/internal/fleet"
	"ecocharge/internal/obs"
	"ecocharge/internal/wire"
)

func TestParseShards(t *testing.T) {
	got, err := parseShards(" http://a:1/ , http://b:2|http://b:3/ ")
	if err != nil {
		t.Fatal(err)
	}
	want := []fleet.Shard{{URL: "http://a:1"}, {URL: "http://b:2", Replica: "http://b:3"}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	for _, bad := range []string{"", "  ", "http://a:1,,http://b:2"} {
		if _, err := parseShards(bad); err == nil {
			t.Errorf("-shards %q accepted", bad)
		}
	}
}

// TestNewGatewayWorldFlags starts two shards the way cmd/eis does — the
// Oldenburg scenario at seed 42 — and fronts them with the three gateways
// the flags can make: no world (the default), the shards' world, and a world
// of another seed. All three answer the same bytes; only the one that holds
// the shards' world searches on their behalf.
func TestNewGatewayWorldFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario build is slow")
	}
	sc, err := experiment.BuildScenario("Oldenburg", 0.001, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh shards (empty caches) per gateway: the same request is a miss on
	// every shard each time.
	startShards := func() string {
		var urls []string
		for i := 0; i < 2; i++ {
			env, err := fleet.ShardEnv(sc.Env, i, 2)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(eis.NewServer(env, eis.ServerOptions{}).Handler())
			t.Cleanup(ts.Close)
			urls = append(urls, ts.URL)
		}
		return strings.Join(urls, ",")
	}
	center := sc.Graph.Bounds().Center()
	body := wire.AppendOfferingRequest(nil, &wire.OfferingRequest{
		Lat: center.Lat, Lon: center.Lon, K: 5, Now: sc.Start, Weights: wire.WeightsJSON{L: 2, A: 1, D: 1},
	})
	supplied := obs.Default().Counter("fleet_travel_supplied_total")

	var first []byte
	for _, tc := range []struct {
		name, dataset string
		seed          int64
		desc          string
		blocks        uint64
	}{
		{"no world", "", 42, "graph-free", 0},
		{"the shards' world", "Oldenburg", 42, "searching Oldenburg seed 42", 2},
		{"another seed", "Oldenburg", 7, "searching Oldenburg seed 7", 0},
	} {
		gw, desc, err := newGateway(startShards(), tc.dataset, tc.seed, fleet.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !strings.Contains(desc, tc.desc) || !strings.Contains(desc, "2 shards") {
			t.Errorf("%s: description %q", tc.name, desc)
		}
		gw.ProbeAll(context.Background())
		ts := httptest.NewServer(gw.Handler())
		t.Cleanup(ts.Close)
		before := supplied.Value()
		req, err := http.NewRequest(http.MethodPost, ts.URL+eis.APIVersion+"/offering", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", wire.ContentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: offering answered %d (%v): %.200s", tc.name, resp.StatusCode, err, buf.Bytes())
		}
		if got := supplied.Value() - before; got != tc.blocks {
			t.Errorf("%s: the gateway sent %d travel blocks, want %d", tc.name, got, tc.blocks)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Errorf("%s: answers differently from the graph-free gateway\n%s\n%s", tc.name, buf.Bytes(), first)
		}
	}
}

func TestNewGatewayRejectsBadFlags(t *testing.T) {
	if _, _, err := newGateway("", "", 42, fleet.Options{}); err == nil {
		t.Error("no -shards accepted")
	}
	if _, _, err := newGateway("http://localhost:1", "nope", 42, fleet.Options{}); err == nil {
		t.Error("unknown -dataset accepted")
	}
	if _, _, err := newGateway("not a url", "", 42, fleet.Options{}); err == nil {
		t.Error("a shard that is not a URL accepted")
	}
}
