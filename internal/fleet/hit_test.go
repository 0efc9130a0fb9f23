package fleet_test

// The cache-hit path end to end: one client, an in-process 3-shard fleet on
// loopback TCP (load.StartInproc), one warmed cell. The package is external
// because internal/load imports fleet. The benchmarks are the place to take
// a -cpuprofile/-memprofile of a hit from; the test pins the allocation
// budget of one hit so that losing one of the exchange's cuts fails tier-1.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	"ecocharge/internal/eis"
	"ecocharge/internal/fleet"
	"ecocharge/internal/load"
	"ecocharge/internal/wire"
)

var hitNow = time.Date(2024, 6, 18, 9, 30, 0, 0, time.UTC)

// hitK is the table size the repository benchmark asks for (bench/workload.go).
const hitK = 5

// hitClient sends one fixed offering request to a warmed fleet.
type hitClient struct {
	url, contentType, accept string
	shardURL                 string // the same endpoint on shard 0
	body                     []byte
	client                   *http.Client
	buf                      bytes.Buffer
}

func newHitClient(tb testing.TB, plane load.Plane) *hitClient {
	tb.Helper()
	env := fleet.TestEnv(tb)
	ip, err := load.StartInproc(env, load.InprocOptions{
		WireShards: true,
		Clock:      func() time.Time { return hitNow },
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(ip.Close)

	anchor := env.Chargers.All()[0].P
	req := wire.OfferingRequest{Lat: anchor.Lat, Lon: anchor.Lon, K: hitK, Now: hitNow}
	c := &hitClient{
		url:         ip.URL + eis.APIVersion + "/offering",
		shardURL:    ip.ShardURLs[0] + eis.APIVersion + "/offering",
		contentType: "application/json",
		client:      &http.Client{Transport: eis.DefaultTransport(1, plane == load.PlaneWire)},
	}
	tb.Cleanup(c.client.CloseIdleConnections)
	if plane == load.PlaneWire {
		c.contentType, c.accept = wire.ContentType, wire.ContentType
		c.body = wire.AppendOfferingRequest(nil, &req)
	} else if c.body, err = json.Marshal(req); err != nil {
		tb.Fatal(err)
	}
	// The first exchange ranks on every shard; from the second on it is a
	// hit everywhere, which the answer's Cached flag confirms.
	for i := 0; i < 2; i++ {
		if err := c.send(); err != nil {
			tb.Fatal(err)
		}
	}
	var resp wire.OfferingResponse
	if plane == load.PlaneWire {
		err = wire.DecodeOfferingResponse(c.buf.Bytes(), &resp)
	} else {
		err = json.Unmarshal(c.buf.Bytes(), &resp)
	}
	if err != nil || !resp.Cached || len(resp.Entries) != hitK {
		tb.Fatalf("warmed cell answered cached=%v with %d entries (%v)", resp.Cached, len(resp.Entries), err)
	}
	return c
}

// send performs one exchange and leaves the body in c.buf.
func (c *hitClient) send() error {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(c.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", c.contentType)
	if c.accept != "" {
		req.Header.Set("Accept", c.accept)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := io.Copy(&c.buf, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, c.buf.Bytes())
	}
	return nil
}

func benchGatewayHit(b *testing.B, plane load.Plane) {
	c := newHitClient(b, plane)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.send(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGatewayHit(b *testing.B)     { benchGatewayHit(b, load.PlaneWire) }
func BenchmarkGatewayHitJSON(b *testing.B) { benchGatewayHit(b, load.PlaneJSON) }

// allocPerSend is the process-wide allocation of one c.send(), in bytes.
func allocPerSend(t *testing.T, c *hitClient) int64 {
	t.Helper()
	const rounds = 2000
	var before, after runtime.MemStats
	for i := 0; i < 200; i++ { // pools and connections reach steady state
		if err := c.send(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if err := c.send(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / rounds
}

// TestGatewayHitAllocCeiling: one wire-plane hit moves four HTTP requests
// (client→gateway and gateway→three shards), so it is measured against the
// same client sending the same request straight to one warmed shard: one
// HTTP request, whatever the toolchain's net/http allocates for it. Four of
// those cost 27.8 KB and the hit through the gateway 27.1 KB: its own
// exchange and merge add 2.5 KB, and its three RoundTrip calls save what
// this client's NewRequest and Client.Do cost. The margin leaves 1.2 KB of
// head-room and still fails when one of the cuts is lost: Client.Do's
// redirect plumbing (1.4 KB over the three exchanges, the smallest), a
// context per shard exchange or per shard request (2.5 KB each), a request
// built per exchange (3 KB), the map-and-sort merge (8 KB).
func TestGatewayHitAllocCeiling(t *testing.T) {
	if fleet.RaceEnabled {
		t.Skip("the race detector allocates inside sync.Pool")
	}
	const margin = 512 // bytes per hit over four direct shard hits
	c := newHitClient(t, load.PlaneWire)
	viaGateway := allocPerSend(t, c)
	c.url = c.shardURL
	direct := allocPerSend(t, c)
	t.Logf("%d B per hit through the gateway, %d B straight to a shard", viaGateway, direct)
	if viaGateway > 4*direct+margin {
		t.Fatalf("one cache hit through the gateway allocates %d B, over 4 × %d B + %d B", viaGateway, direct, margin)
	}
}
