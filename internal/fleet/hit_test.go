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
	"math"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"ecocharge/internal/eis"
	"ecocharge/internal/experiment"
	"ecocharge/internal/fleet"
	"ecocharge/internal/load"
	"ecocharge/internal/obs"
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
		Clock: func() time.Time { return hitNow },
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

// missFleet is an in-process 3-shard fleet over the Oldenburg scenario of
// the repository benchmark, and a client that asks it for rankings no cache
// holds: one anchor, weights of its own per request.
type missFleet struct {
	hitClient
	req wire.OfferingRequest
	n   int
	sc  *experiment.Scenario
}

func newMissFleet(tb testing.TB, opts load.InprocOptions) *missFleet {
	tb.Helper()
	sc, err := experiment.BuildScenario("Oldenburg", 0.001, 42)
	if err != nil {
		tb.Fatal(err)
	}
	ip, err := load.StartInproc(sc.Env, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(ip.Close)
	anchor := sc.Graph.Bounds().Center()
	f := &missFleet{
		hitClient: hitClient{
			url:         ip.URL + eis.APIVersion + "/offering",
			contentType: wire.ContentType, accept: wire.ContentType,
			client: &http.Client{Transport: eis.DefaultTransport(1, true)},
		},
		req: wire.OfferingRequest{Lat: anchor.Lat, Lon: anchor.Lon, K: hitK, Now: sc.Start},
		sc:  sc,
	}
	tb.Cleanup(f.client.CloseIdleConnections)
	return f
}

// rank sends the next one-shot request and returns the decoded answer.
func (f *missFleet) rank(tb testing.TB) *wire.OfferingResponse {
	tb.Helper()
	f.n++
	f.req.Weights = wire.WeightsJSON{L: 1, A: 1 + float64(f.n)/1024, D: 0.5}
	f.body = wire.AppendOfferingRequest(f.body[:0], &f.req)
	if err := f.send(); err != nil {
		tb.Fatal(err)
	}
	var resp wire.OfferingResponse
	if err := wire.DecodeOfferingResponse(f.buf.Bytes(), &resp); err != nil {
		tb.Fatal(err)
	}
	if resp.Cached || len(resp.Entries) != hitK {
		tb.Fatalf("one-shot request %d answered cached=%v with %d entries", f.n, resp.Cached, len(resp.Entries))
	}
	return &resp
}

// searches is how many network expansions the process has started.
func searches() float64 {
	snap := obs.Default().Snapshot()
	return snap["roadnet_expansions_total"] + snap["roadnet_many_expansions_total"]
}

// missAllocCeiling is what one personalised ranking through the fleet may
// allocate, process-wide: 76 KB measured — five HTTP exchanges' worth of
// net/http, the gateway's request body a shard with its travel block, and on
// each shard the response-cache entry and the table. It does not cover a
// candidate retrieval that allocates (14 KB a shard).
const missAllocCeiling = 80 << 10

// BenchmarkGatewayMiss is the cache-miss path end to end: one personalised
// ranking through the fleet, which every shard computes. The gateway runs
// the ranking's network search and the shards build on its travel times, so
// the fleet must have started exactly one expansion per ranking; and one
// ranking must stay under the allocation ceiling.
func BenchmarkGatewayMiss(b *testing.B) {
	f := newMissFleet(b, load.InprocOptions{})
	supplied := obs.Default().Counter("fleet_travel_supplied_total")
	// The gateway searches for a shard once it has pulled its inventory,
	// and it pulls them one after the other: wait for a ranking that went
	// out with a block for each of the three.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		s0 := supplied.Value()
		if f.rank(b); supplied.Value()-s0 == 3 {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("the gateway never searched on behalf of all three shards")
		}
	}
	for i := 0; i < 20; i++ { // pools and connections reach steady state
		f.rank(b)
	}
	before := searches()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.rank(b)
	}
	b.StopTimer()
	if got := searches() - before; got != float64(b.N) {
		b.Fatalf("%v network expansions for %d fleet rankings, want one each", got, b.N)
	}
	if perRanking := allocPerRequest(func() { f.rank(b) }); perRanking > missAllocCeiling {
		b.Fatalf("one ranking allocates %d B, over the ceiling of %d B", perRanking, missAllocCeiling)
	}
}

// allocPerRequest is what one request of a warmed-up benchmark fleet
// allocates, process-wide, averaged over fifty of them off the benchmark's
// clock — the least of three such windows. Fifty make the ceilings hold at
// any -benchtime, the harness's one-iteration trial run included, where one
// timer of the fleet firing is half a request's figure. Three make them hold
// across a garbage collection: it empties the sync.Pools, and the search
// states refilled after it (207 KB each) land in one window, two of them
// 8 KB a request over fifty, where an allocation the request makes shows in
// every window. It reads 0 under the race detector, which allocates inside
// sync.Pool.
func allocPerRequest(request func()) uint64 {
	if fleet.RaceEnabled {
		return 0
	}
	const n, windows = 50, 3
	least := uint64(math.MaxUint64)
	for w := 0; w < windows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			request()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/n)
	}
	return least
}

// tripAllocCeiling is what one benchmark trip through the fleet may allocate,
// process-wide. The longest trip of the scenario (four computed segments)
// measures 152 KB: the three shards' segmenting, tables and binary answers —
// they follow the gateway's route and route nothing themselves — and at the
// gateway its plan, one request body a shard (64 KB in all: the route and the
// travel blocks) and the client's JSON. The head-room is for the toolchain's
// net/http; what it does not cover is any one of the cuts coming back: JSON
// answers from the shards (45 KB of decoding at the gateway), a candidate
// retrieval that allocates per computed segment (132 KB), a snap through
// container/heap (66 KB over the fifteen snaps of a trip), request bodies
// that outgrow the connections' write buffers (54 KB of copy buffers) or are
// encoded into a growing buffer and copied (64 KB).
const tripAllocCeiling = 170 << 10

// BenchmarkGatewayTrip is the trip path end to end: the repository
// benchmark's request — five waypoints, k, R and segment length as there —
// through the fleet. The gateway plans the trip and runs each computed
// segment's two-leg search once, so the fleet must have started exactly two
// expansions a computed segment; and one trip must stay under the allocation
// ceiling.
func BenchmarkGatewayTrip(b *testing.B) {
	f := newMissFleet(b, load.InprocOptions{})
	trip := f.sc.Trips[0]
	for _, t := range f.sc.Trips {
		if len(t.Path.Nodes) > len(trip.Path.Nodes) {
			trip = t
		}
	}
	req := eis.TripOfferingRequest{Depart: trip.Depart, K: hitK, RadiusM: 50000, SegmentLenM: 4000}
	for frac := 0; frac <= 4; frac++ {
		p := f.sc.Graph.Node(trip.Path.Nodes[(len(trip.Path.Nodes)-1)*frac/4]).P
		req.Waypoints = append(req.Waypoints, eis.LatLon{Lat: p.Lat, Lon: p.Lon})
	}
	var err error
	if f.body, err = json.Marshal(req); err != nil {
		b.Fatal(err)
	}
	f.url = strings.TrimSuffix(f.url, "/offering") + "/offering/trip"
	f.contentType, f.accept = "application/json", ""

	// As in BenchmarkGatewayMiss: wait for a trip that went out with the
	// blocks of its computed segments to each of the three shards.
	supplied := obs.Default().Counter("fleet_travel_supplied_total")
	computed := 0
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		s0 := supplied.Value()
		if err := f.send(); err != nil {
			b.Fatal(err)
		}
		var resp eis.TripOfferingResponse
		if err := json.Unmarshal(f.buf.Bytes(), &resp); err != nil {
			b.Fatal(err)
		}
		computed = 0
		for _, seg := range resp.Segments {
			if len(seg.Entries) != hitK {
				b.Fatalf("segment %d has %d entries", seg.SegmentIndex, len(seg.Entries))
			}
			if !seg.Adapted {
				computed++
			}
		}
		if computed > 0 && supplied.Value()-s0 == uint64(3*computed) {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("the gateway never planned the trip on behalf of all three shards")
		}
	}
	for i := 0; i < 20; i++ { // pools and connections reach steady state
		if err := f.send(); err != nil {
			b.Fatal(err)
		}
	}
	expansions := func() float64 { return obs.Default().Snapshot()["roadnet_many_expansions_total"] }
	legs := expansions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.send(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := expansions() - legs; got != float64(2*computed*b.N) {
		b.Fatalf("%v network expansions for %d trips of %d computed segments, want two a segment", got, b.N, computed)
	}
	perTrip := allocPerRequest(func() {
		if err := f.send(); err != nil {
			b.Fatal(err)
		}
	})
	if perTrip > tripAllocCeiling {
		b.Fatalf("one trip allocates %d B, over the ceiling of %d B", perTrip, tripAllocCeiling)
	}
}
