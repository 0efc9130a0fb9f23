package fleet_test

// The cache-hit path end to end: one client, an in-process 3-shard fleet on
// loopback TCP (load.StartInproc), one warmed cell. The package is external
// because internal/load imports fleet. The benchmarks are the place to take
// a -cpuprofile/-memprofile of a hit from; the tests pin the allocation
// budget of one hit, and below of one ranking and one trip, so that losing
// one of their cuts fails tier-1.

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
// HTTP request, whatever the toolchain's net/http allocates for it, client
// half and server half. Three of those cost 20.8 KB and the hit through the
// gateway 15.4 KB: its fan-out sends and reads on the handler's goroutine,
// on its own transport (transport.go), under one cancellation hook (0.5 KB),
// and keeps only the header fields it reads. The ceiling, three direct
// requests less 5 KB, leaves 0.3 KB of head-room and fails when one of the
// cuts is lost: a context per fan-out (0.65 KB, the smallest), the answers'
// headers read into textproto maps (1.5 KB over the three), Client.Do's
// redirect plumbing (1.4 KB), a request built per exchange (3 KB),
// net/http's transport under the shard hop (7 KB), the map-and-sort merge
// (8 KB).
func TestGatewayHitAllocCeiling(t *testing.T) {
	if fleet.RaceEnabled {
		t.Skip("the race detector allocates inside sync.Pool")
	}
	const margin = -5 << 10 // bytes per hit over three direct shard hits
	c := newHitClient(t, load.PlaneWire)
	viaGateway := allocPerSend(t, c)
	c.url = c.shardURL
	direct := allocPerSend(t, c)
	t.Logf("%d B per hit through the gateway, %d B straight to a shard", viaGateway, direct)
	if viaGateway > 3*direct+margin {
		t.Fatalf("one cache hit through the gateway allocates %d B, over 3 × %d B + %d B", viaGateway, direct, margin)
	}
}

// TestGatewayHitJSONAllocCeiling: a JSON hit is the wire hit with the
// client's request decoded by encoding/json at the gateway and the merged
// table rendered as JSON by the offering appender, which allocates nothing.
// So it is measured against the wire hit through the same kind of fleet: 1.47
// KB more. The ceiling, 1.6 KB more, fails when the answer goes through
// encoding/json again (1.77 KB more: the Encoder and a string per time).
func TestGatewayHitJSONAllocCeiling(t *testing.T) {
	if fleet.RaceEnabled {
		t.Skip("the race detector allocates inside sync.Pool")
	}
	const ceiling = 1600 // bytes per hit over a wire hit
	jsonHit := allocPerSend(t, newHitClient(t, load.PlaneJSON))
	wireHit := allocPerSend(t, newHitClient(t, load.PlaneWire))
	t.Logf("%d B per JSON hit, %d B per wire hit", jsonHit, wireHit)
	if jsonHit > wireHit+ceiling {
		t.Fatalf("one JSON cache hit through the gateway allocates %d B, over the wire hit's %d B + %d B", jsonHit, wireHit, ceiling)
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
// allocate, process-wide: 19.7–20.3 KB measured — the client's exchange and
// the shards' server halves in net/http, the gateway's three on its own
// transport, and on each shard the response-cache entry, the growth of a
// cache that still has room, and the ranking. The gateway writes every
// shard's request, travel block included, into its pooled fan-out, the
// shards read their blocks where they arrived, a shard's ranking writes its
// rows into pooled scratch and its answer from pooled rows, and a
// single-flight leader starts no timer. The head-room does not cover request
// bodies the garbage collector owns (14 KB: a body a shard and the plain
// request), a block copied out of the request (4 KB a shard), a candidate
// retrieval that allocates (14 KB a shard), net/http's transport under the
// shard hop (6 KB), nor rows written fresh and a timer per leader together
// (3.7 KB); fullMissAllocCeiling, which has no cache growth to allow for,
// catches either of those alone.
const missAllocCeiling = 21<<10 + 512

// fullMissAllocCeiling is missAllocCeiling for a fleet whose shards' response
// caches are full, as on a server that has been up for a while: a
// personalised key is one nobody asked for before, so every shard answers its
// table and drops it — no cache entry is encoded, copied or evicted for it.
// 17.1 KB measured, to a few bytes. The head-room, 1.5 KB, does not cover a
// ranking's rows written fresh (1.7 KB over the three shards) nor a timer per
// leader (1.9 KB); a shard that stores the table anyway fails fullMissFleet.
const fullMissAllocCeiling = 18<<10 + 256

// warmMissFleet is a missFleet whose gateway searches for all three shards,
// its pools and connections at steady state.
func warmMissFleet(tb testing.TB) *missFleet {
	tb.Helper()
	f := newMissFleet(tb, load.InprocOptions{})
	supplied := obs.Default().Counter("fleet_travel_supplied_total")
	// The gateway searches for a shard once a probe has read its world, and
	// it probes them one after the other: wait for a ranking that went out
	// with a block for each of the three.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		s0 := supplied.Value()
		if f.rank(tb); supplied.Value()-s0 == 3 {
			break
		}
		if time.Now().After(deadline) {
			tb.Fatal("the gateway never searched on behalf of all three shards")
		}
	}
	for i := 0; i < 20; i++ {
		f.rank(tb)
	}
	return f
}

// fullMissFleet is a warmMissFleet whose shards' response caches were filled
// first with one-shot keys that rank nothing (a radius of one meter, k
// counting up), until a whole batch of them was declined by every shard:
// then every stripe is at its bound, and a ranking the shards were not asked
// for before is answered uncached.
func fullMissFleet(tb testing.TB) *missFleet {
	tb.Helper()
	f := warmMissFleet(tb)
	declined := obs.Default().Counter("eis_rescache_declined_total")
	fill := f.req
	fill.RadiusM = 1
	const batch = 256
	for full := false; !full; {
		d0 := declined.Value()
		for i := 0; i < batch; i++ {
			if fill.K++; fill.K > 16*4096 {
				tb.Fatalf("the shards' caches were still taking keys after %d of them", fill.K)
			}
			f.body = wire.AppendOfferingRequest(f.body[:0], &fill)
			if err := f.send(); err != nil {
				tb.Fatal(err)
			}
		}
		full = declined.Value()-d0 == 3*batch
	}
	d0 := declined.Value()
	for i := 0; i < 20; i++ {
		f.rank(tb)
	}
	if got := declined.Value() - d0; got != 3*20 {
		tb.Fatalf("full caches declined %d of 60 one-shot tables", got)
	}
	return f
}

// BenchmarkGatewayMiss is the cache-miss path end to end: one personalised
// ranking through the fleet, which every shard computes — into caches with
// room (room) and into full ones, which decline it (full). The gateway runs
// the ranking's network search and the shards build on its travel times, so
// the fleet must have started exactly one expansion per ranking; and one
// ranking must stay under the allocation ceiling.
func BenchmarkGatewayMiss(b *testing.B) {
	b.Run("room", func(b *testing.B) { benchGatewayMiss(b, warmMissFleet(b), missAllocCeiling) })
	b.Run("full", func(b *testing.B) { benchGatewayMiss(b, fullMissFleet(b), fullMissAllocCeiling) })
}

func benchGatewayMiss(b *testing.B, f *missFleet, ceiling uint64) {
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
	if perRanking := allocPerRequest(func() { f.rank(b) }); perRanking > ceiling {
		b.Fatalf("one ranking allocates %d B, over the ceiling of %d B", perRanking, ceiling)
	}
}

// TestGatewayMissAllocCeiling holds one personalised ranking through the
// fleet to missAllocCeiling in tier-1, as the benchmark does.
func TestGatewayMissAllocCeiling(t *testing.T) {
	if fleet.RaceEnabled {
		t.Skip("the race detector allocates inside sync.Pool")
	}
	f := warmMissFleet(t)
	perRanking := allocPerRequest(func() { f.rank(t) })
	t.Logf("%d B per ranking", perRanking)
	if perRanking > missAllocCeiling {
		t.Fatalf("one ranking allocates %d B, over the ceiling of %d B", perRanking, missAllocCeiling)
	}
}

// TestGatewayMissFullCacheAllocCeiling holds one personalised ranking through
// a fleet whose shards' caches are full to fullMissAllocCeiling in tier-1, as
// the benchmark does.
func TestGatewayMissFullCacheAllocCeiling(t *testing.T) {
	if fleet.RaceEnabled {
		t.Skip("the race detector allocates inside sync.Pool")
	}
	f := fullMissFleet(t)
	perRanking := allocPerRequest(func() { f.rank(t) })
	t.Logf("%d B per ranking", perRanking)
	if perRanking > fullMissAllocCeiling {
		t.Fatalf("one ranking allocates %d B, over the ceiling of %d B", perRanking, fullMissAllocCeiling)
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
// measures 55 KB: the three shards' segmenting, tables and binary answers —
// they follow the gateway's route and route nothing themselves, and write
// their answers from pooled rows — and at the gateway its plan and the
// client's JSON. The gateway writes the shards' requests, the route and the
// travel blocks, into its pooled fan-out. The head-room is for the
// toolchain's net/http; what it does not cover is any one of the cuts coming
// back: request bodies the garbage collector owns (64 KB), JSON answers from
// the shards (45 KB of decoding at the gateway), a candidate retrieval that
// allocates per computed segment (132 KB), a snap through container/heap
// (66 KB over the fifteen snaps of a trip).
const tripAllocCeiling = 64 << 10

// warmTripFleet is a missFleet set to send the repository benchmark's trip
// request — five waypoints, k, R and segment length as there — along the
// scenario's longest trip, once its gateway plans the trip for all three
// shards, with its pools and connections at steady state. computed is the
// number of segments the shards compute rather than adapt.
func warmTripFleet(tb testing.TB) (f *missFleet, computed int) {
	tb.Helper()
	f = newMissFleet(tb, load.InprocOptions{})
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
		tb.Fatal(err)
	}
	f.url = strings.TrimSuffix(f.url, "/offering") + "/offering/trip"
	f.contentType, f.accept = "application/json", ""

	// As in warmMissFleet: wait for a trip that went out with the blocks of
	// its computed segments to each of the three shards.
	supplied := obs.Default().Counter("fleet_travel_supplied_total")
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		s0 := supplied.Value()
		if err := f.send(); err != nil {
			tb.Fatal(err)
		}
		var resp eis.TripOfferingResponse
		if err := json.Unmarshal(f.buf.Bytes(), &resp); err != nil {
			tb.Fatal(err)
		}
		computed = 0
		for _, seg := range resp.Segments {
			if len(seg.Entries) != hitK {
				tb.Fatalf("segment %d has %d entries", seg.SegmentIndex, len(seg.Entries))
			}
			if !seg.Adapted {
				computed++
			}
		}
		if computed > 0 && supplied.Value()-s0 == uint64(3*computed) {
			break
		}
		if time.Now().After(deadline) {
			tb.Fatal("the gateway never planned the trip on behalf of all three shards")
		}
	}
	for i := 0; i < 20; i++ {
		if err := f.send(); err != nil {
			tb.Fatal(err)
		}
	}
	return f, computed
}

// allocPerTrip is what one trip of a warmed trip fleet allocates
// (allocPerRequest).
func allocPerTrip(tb testing.TB, f *missFleet) uint64 {
	return allocPerRequest(func() {
		if err := f.send(); err != nil {
			tb.Fatal(err)
		}
	})
}

// BenchmarkGatewayTrip is the trip path end to end: the repository
// benchmark's request through the fleet. The gateway plans the trip and runs
// each computed segment's two-leg search once, so the fleet must have
// started exactly two expansions a computed segment; and one trip must stay
// under the allocation ceiling.
func BenchmarkGatewayTrip(b *testing.B) {
	f, computed := warmTripFleet(b)
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
	if perTrip := allocPerTrip(b, f); perTrip > tripAllocCeiling {
		b.Fatalf("one trip allocates %d B, over the ceiling of %d B", perTrip, tripAllocCeiling)
	}
}

// TestGatewayTripAllocCeiling holds one benchmark trip through the fleet to
// tripAllocCeiling in tier-1, as the benchmark does.
func TestGatewayTripAllocCeiling(t *testing.T) {
	if fleet.RaceEnabled {
		t.Skip("the race detector allocates inside sync.Pool")
	}
	f, _ := warmTripFleet(t)
	perTrip := allocPerTrip(t, f)
	t.Logf("%d B per trip", perTrip)
	if perTrip > tripAllocCeiling {
		t.Fatalf("one trip allocates %d B, over the ceiling of %d B", perTrip, tripAllocCeiling)
	}
}
