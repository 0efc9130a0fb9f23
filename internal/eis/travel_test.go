package eis

// The shard's side of the fleet's one road search: what an /offering request
// may bring along (wire.TravelBlock), what the server does with it, and the
// cache terms it states for the gateway that sends it.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"ecocharge/internal/cknn"
	"ecocharge/internal/geo"
	"ecocharge/internal/obs"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/trajectory"
	"ecocharge/internal/wire"
)

// postWire posts one wire-plane offering request to the handler.
func postWire(t *testing.T, h http.Handler, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, APIVersion+"/offering", bytes.NewReader(body))
	r.Header.Set("Content-Type", wire.ContentType)
	r.Header.Set("Accept", wire.ContentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

// blockFor is the travel block an honest gateway sends with req: the
// ranking's own search, read at every candidate.
func blockFor(t *testing.T, env *cknn.Env, req *OfferingRequest) *wire.TravelBlock {
	t.Helper()
	o, err := ResolveOffering(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	anchor := env.Graph.NearestNode(o.P)
	var nodes []roadnet.NodeID
	for _, c := range env.Chargers.Within(o.P, o.RadiusM) {
		nodes = append(nodes, c.Node)
	}
	ts, ok := cknn.SearchTravel(env, cknn.EcoChargeOptions{RadiusM: o.RadiusM}, cknn.Query{
		Anchor: o.P, AnchorNode: anchor, ReturnNode: anchor, Now: o.Now, ETABase: o.ETA, RadiusM: o.RadiusM,
	}, nodes)
	if !ok {
		t.Fatal("SearchTravel declined on the test world")
	}
	defer ts.Release()
	b := &wire.TravelBlock{Anchor: anchor, Nodes: nodes}
	b.ScaleLo, b.ScaleHi = ts.Scales()
	for _, n := range nodes {
		b.Seconds = append(b.Seconds, ts.Seconds(n))
	}
	return b
}

// TestOfferingTravelBlock: a good block is built on (no search, the counter
// says used) and a block that is well-formed but wrong for this ranking is
// discarded (the shard searches, the counter says rejected); either way the
// body is the one a request without a block gets.
func TestOfferingTravelBlock(t *testing.T) {
	env := testEnv(t)
	manySearches := func() uint64 { return obsCounter("roadnet_many_expansions_total") }
	anchor := env.Chargers.All()[7].P
	req := OfferingRequest{Lat: anchor.Lat, Lon: anchor.Lon, K: 4, Now: fixedNow, Weights: WeightsJSON{L: 2, A: 1, D: 1}}
	fresh := func() http.Handler {
		return NewServer(env, ServerOptions{Clock: func() time.Time { return fixedNow }}).Handler()
	}
	plain := postWire(t, fresh(), wire.AppendOfferingRequest(nil, &req))
	if plain.Code != http.StatusOK {
		t.Fatalf("request without a block: %d %s", plain.Code, plain.Body)
	}

	good := blockFor(t, env, &req)
	// Drop every entry of the farthest candidate's node (chargers of one
	// site share a node, and coverage goes by node).
	farthest := good.Nodes[len(good.Nodes)-1]
	if farthest == good.Anchor {
		t.Fatal("the farthest candidate sits on the anchor; pick another anchor")
	}
	uncovered := wire.TravelBlock{Anchor: good.Anchor, ScaleLo: good.ScaleLo, ScaleHi: good.ScaleHi}
	for i, n := range good.Nodes {
		if n != farthest {
			uncovered.Nodes, uncovered.Seconds = append(uncovered.Nodes, n), append(uncovered.Seconds, good.Seconds[i])
		}
	}
	beyond := *good
	beyond.Nodes = append([]roadnet.NodeID{roadnet.NodeID(env.Graph.NumNodes())}, good.Nodes...)
	beyond.Seconds = append([]float64{1}, good.Seconds...)
	nowhere := *good
	nowhere.Anchor = roadnet.NodeID(env.Graph.NumNodes())

	for _, tc := range []struct {
		name     string
		block    *wire.TravelBlock
		used     uint64
		searches uint64
	}{
		{"good", good, 1, 0},
		{"a candidate short", &uncovered, 0, 1},
		{"node the graph does not have", &beyond, 0, 1},
		{"anchor the graph does not have", &nowhere, 0, 1},
	} {
		with := req
		with.Travel = tc.block
		used0, rejected0, many0 := met.travelUsed.Value(), met.travelRejected.Value(), manySearches()
		rec := postWire(t, fresh(), wire.AppendOfferingRequest(nil, &with))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.name, rec.Code, rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), plain.Body.Bytes()) {
			t.Errorf("%s: the body differs from the one a request without a block gets", tc.name)
		}
		if u, r := met.travelUsed.Value()-used0, met.travelRejected.Value()-rejected0; u != tc.used || r != 1-tc.used {
			t.Errorf("%s: used +%d rejected +%d, want +%d and +%d", tc.name, u, r, tc.used, 1-tc.used)
		}
		if got := manySearches() - many0; got != tc.searches {
			t.Errorf("%s: the shard started %d searches, want %d", tc.name, got, tc.searches)
		}
	}

	// A cache hit ignores the block, whatever is in it.
	h := fresh()
	postWire(t, h, wire.AppendOfferingRequest(nil, &req))
	with := req
	with.Travel = &uncovered
	used0, rejected0 := met.travelUsed.Value(), met.travelRejected.Value()
	if rec := postWire(t, h, wire.AppendOfferingRequest(nil, &with)); rec.Code != http.StatusOK {
		t.Fatalf("hit with a block: %d %s", rec.Code, rec.Body)
	}
	if met.travelUsed.Value() != used0 || met.travelRejected.Value() != rejected0 {
		t.Error("a cache hit looked at its travel block")
	}
}

// TestOfferingHostileTravelBlock: a block that is not even well-formed is a
// 400 and nothing is ranked or cached.
func TestOfferingHostileTravelBlock(t *testing.T) {
	env := testEnv(t)
	anchor := env.Chargers.All()[7].P
	req := OfferingRequest{Lat: anchor.Lat, Lon: anchor.Lon, K: 4, Now: fixedNow}
	bare := wire.AppendOfferingRequest(nil, &req)
	req.Travel = blockFor(t, env, &req)
	enc := wire.AppendOfferingRequest(nil, &req)
	f64 := func(v float64) []byte {
		b := make([]byte, 8)
		for i, bits := 0, math.Float64bits(v); i < 8; i++ {
			b[i] = byte(bits >> (8 * i))
		}
		return b
	}
	patch := func(off int, b []byte) []byte {
		bad := append([]byte(nil), enc...)
		copy(bad[len(bare)+off:], b)
		return bad
	}
	const scales = 1 + 4                        // tag, anchor
	const firstSeconds = scales + 8 + 8 + 1 + 4 // scales, one-byte count, first node
	if n := len(req.Travel.Nodes); n >= 128 {
		t.Fatalf("%d candidates: the count is no longer one byte, fix the offsets", n)
	}
	srv := NewServer(env, ServerOptions{Clock: func() time.Time { return fixedNow }})
	h := srv.Handler()
	for name, body := range map[string][]byte{
		"truncated":     enc[:len(enc)-5],
		"wrong count":   patch(scales+8+8, []byte{byte(len(req.Travel.Nodes) - 1)}),
		"NaN time":      patch(firstSeconds, f64(math.NaN())),
		"negative time": patch(firstSeconds, f64(-4)),
		"scale zero":    patch(scales, f64(0)),
		"scale below 0": patch(scales, f64(-1)),
		"no anchor":     patch(1, []byte{0xff, 0xff, 0xff, 0xff}),
		"negative node": patch(firstSeconds-4, []byte{0xff, 0xff, 0xff, 0xff}),
		"trailing byte": append(append([]byte(nil), enc...), 7),
	} {
		if rec := postWire(t, h, body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: answered %d %s, want 400", name, rec.Code, rec.Body)
		}
	}
	if n, c := srv.cache.entries(), srv.computes.Load(); n != 0 || c != 0 {
		t.Fatalf("hostile requests left %d cache entries and %d computations", n, c)
	}
}

// TestOfferingWeightSpellingsShareOneEntry: the cache keys on the weights
// the ranking uses, so {1,1,1}, {2,2,2} and no weights at all — one ranking —
// are one computation and one entry.
func TestOfferingWeightSpellingsShareOneEntry(t *testing.T) {
	env := testEnv(t)
	srv := NewServer(env, ServerOptions{Clock: func() time.Time { return fixedNow }})
	h := srv.Handler()
	anchor := env.Chargers.All()[3].P
	var first []byte
	for i, w := range []WeightsJSON{{}, {L: 1, A: 1, D: 1}, {L: 2, A: 2, D: 2}, {L: 0.25, A: 0.25, D: 0.25}} {
		rec := postWire(t, h, wire.AppendOfferingRequest(nil, &OfferingRequest{Lat: anchor.Lat, Lon: anchor.Lon, K: 3, Now: fixedNow, Weights: w}))
		if rec.Code != http.StatusOK {
			t.Fatalf("weights %+v: %d %s", w, rec.Code, rec.Body)
		}
		var resp OfferingResponse
		if err := wire.DecodeOfferingResponse(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Cached != (i > 0) {
			t.Fatalf("weights %+v: cached=%v on request %d", w, resp.Cached, i)
		}
		resp.Cached = false
		body := wire.AppendOfferingResponse(nil, &resp)
		if first == nil {
			first = body
		} else if !bytes.Equal(first, body) {
			t.Fatalf("weights %+v rank a different table than no weights", w)
		}
	}
	if n, c := srv.cache.entries(), srv.computes.Load(); n != 1 || c != 1 {
		t.Fatalf("four spellings of equal weights made %d entries and %d computations, want 1 and 1", n, c)
	}
	// Other weights are another ranking.
	postWire(t, h, wire.AppendOfferingRequest(nil, &OfferingRequest{Lat: anchor.Lat, Lon: anchor.Lon, K: 3, Now: fixedNow, Weights: WeightsJSON{L: 2, A: 1, D: 1}}))
	if n := srv.cache.entries(); n != 2 {
		t.Fatalf("%d entries after a differently weighted request, want 2", n)
	}
}

// TestCachedJSONIsTheEagerEncoding: the JSON body an entry derives from its
// wire body on the first JSON hit is, byte for byte, what encoding the table
// as JSON when it was cached would have stored — for a table with degraded
// entries, zone offsets, and no entries at all — and the entry keeps it.
func TestCachedJSONIsTheEagerEncoding(t *testing.T) {
	cest := time.FixedZone("", 2*3600)
	full := OfferingResponse{GeneratedAt: fixedNow.In(cest)}
	for i := 0; i < 4; i++ {
		f := float64(i)
		full.Entries = append(full.Entries, OfferingEntry{
			ChargerID: int64(100 + i), Lat: 53.1 + f/7, Lon: 8.2 - f/9, RateKW: 22,
			SC: IntervalJSON{Min: 0.1 + f/13, Max: 0.7}, L: IntervalJSON{Min: 0, Max: 1},
			A: IntervalJSON{Min: 1.0 / 3, Max: 2.0 / 3}, D: IntervalJSON{Min: 1e-9, Max: 0.5},
			ETA: fixedNow.Add(time.Duration(i)*time.Minute + 123456789).In(cest), Degraded: uint8(i),
		})
	}
	for name, resp := range map[string]OfferingResponse{
		"full":        full,
		"nil entries": {GeneratedAt: fixedNow},
		"no entries":  {GeneratedAt: fixedNow, Entries: []OfferingEntry{}},
	} {
		hit := resp
		hit.Cached = true
		eager, err := json.Marshal(&hit)
		if err != nil {
			t.Fatal(err)
		}
		eager = append(eager, '\n')

		var c respCache
		key := cacheKey{cellLat: 5}
		c.put(key, resp, fixedNow, fixedNow.Add(time.Minute))
		v, ok := c.get(key, fixedNow)
		if !ok || v.jsonBody != nil {
			t.Fatalf("%s: a fresh entry has ok=%v and a JSON body of %d bytes", name, ok, len(v.jsonBody))
		}
		if v.jsonBody, err = cachedJSON(v.wireBody); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v.jsonBody, eager) {
			t.Fatalf("%s: derived JSON differs from the eager encoding\nderived %s\neager   %s", name, v.jsonBody, eager)
		}
		c.keepJSON(key, v)
		if again, _ := c.get(key, fixedNow); len(again.jsonBody) == 0 || &again.jsonBody[0] != &v.jsonBody[0] {
			t.Fatalf("%s: the entry did not keep its JSON body", name)
		}
		// A body derived from an entry that has since been replaced is dropped.
		c.put(key, resp, fixedNow, fixedNow.Add(time.Minute))
		c.keepJSON(key, v)
		if again, _ := c.get(key, fixedNow); again.jsonBody != nil {
			t.Fatalf("%s: a replaced entry took the JSON body of its predecessor", name)
		}
	}
}

// TestInventoryStatesCacheTerms: the /inventory answer carries what the
// gateway's filter runs on, readable back to the server's own values, and the
// exported key hash is the one the server's cache stripes by.
func TestInventoryStatesCacheTerms(t *testing.T) {
	env := testEnv(t)
	srv := NewServer(env, ServerOptions{CacheCellM: 750, CacheTTL: 90 * time.Second})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, APIVersion+"/inventory", nil))
	terms, ok := CacheTermsFrom(rec.Header())
	if !ok {
		t.Fatalf("no cache terms in %v", rec.Header())
	}
	if want := (CacheTerms{CellM: 750, TTL: 90 * time.Second, World: env.RoadWorld()}); terms != want {
		t.Fatalf("stated %+v, want %+v", terms, want)
	}
	o := Offering{P: geo.Point{Lat: 53.01, Lon: 8.02}, K: 3, RadiusM: 50000, Weights: cknn.Weights{L: 3, A: 2, D: 1}}
	if terms.KeyHash(&o) != offeringKey(srv.opts.CacheCellM, &o).hash() {
		t.Fatal("the exported key hash is not the cache's")
	}
	far := o
	far.P.Lat += 0.1
	if terms.KeyHash(&far) == terms.KeyHash(&o) {
		t.Fatal("two cells a hundred apart hash alike")
	}
	for name, h := range map[string]http.Header{
		"none":     {},
		"bad cell": {headerCacheCell: {"x"}, headerCacheTTL: {"5m"}, headerWorld: {"1"}},
		"no ttl":   {headerCacheCell: {"2000"}, headerWorld: {"1"}},
		"zero ttl": {headerCacheCell: {"2000"}, headerCacheTTL: {"0s"}, headerWorld: {"1"}},
	} {
		if _, ok := CacheTermsFrom(h); ok {
			t.Errorf("%s: read as stated terms", name)
		}
	}
}

func obsCounter(name string) uint64 { return obs.Default().Counter(name).Value() }

// postTrip posts one whole-trip request to the handler.
func postTrip(t testing.TB, h http.Handler, contentType string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, APIVersion+"/offering/trip", bytes.NewReader(body))
	r.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

// tripBlock is one travel block as its sender holds it.
type tripBlock struct {
	head      wire.TripBlock
	nodes     []roadnet.NodeID
	out, back []float64
}

// tripBlocksFor is what an honest gateway sends with req: the plan of the
// trip and each planned segment's own search, read at every candidate.
func tripBlocksFor(t *testing.T, env *cknn.Env, req *TripOfferingRequest) []tripBlock {
	t.Helper()
	to, err := ResolveTripOffering(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	trip, _, err := to.Route(context.Background(), env.Graph)
	if err != nil {
		t.Fatal(err)
	}
	eco, opts := to.Plan()
	segs := trajectory.SegmentTrip(env.Graph, trip, opts.SegmentLenM)
	var blocks []tripBlock
	for _, si := range cknn.ComputedSegments(segs, eco) {
		q := cknn.QueryForSegment(trip, segs[si], opts)
		b := tripBlock{head: wire.TripBlock{Segment: si, Anchor: q.AnchorNode, Return: q.ReturnNode}}
		for _, c := range env.Chargers.Within(q.Anchor, to.RadiusM) {
			b.nodes = append(b.nodes, c.Node)
		}
		ts, ok := cknn.SearchTravel(env, eco, q, append(slices.Clone(b.nodes), q.ReturnNode))
		if !ok {
			t.Fatal("SearchTravel declined on the test world")
		}
		b.head.ScaleLo, b.head.ScaleHi = ts.Scales()
		b.head.Base = ts.Seconds(q.ReturnNode)
		for _, n := range b.nodes {
			b.out, b.back = append(b.out, ts.Seconds(n)), append(b.back, ts.ReturnSeconds(n))
		}
		ts.Release()
		blocks = append(blocks, b)
	}
	return blocks
}

func encodeTrip(req *TripOfferingRequest, blocks []tripBlock) []byte {
	b := wire.AppendTripRequest(nil, req)
	for i := range blocks {
		b = wire.AppendTripBlock(b, &blocks[i].head, blocks[i].nodes, blocks[i].out, blocks[i].back)
	}
	return b
}

// TestTripOfferingTravelBlocks: the binary trip request is the JSON one —
// same answer, in JSON — and the travel blocks it may carry are built on
// where they are a segment's search (no expansion, the counter says used) and
// discarded where they are not (the shard searches, the counter says
// rejected); the answer is the same every time. A request that is not
// well-formed is a 400.
func TestTripOfferingTravelBlocks(t *testing.T) {
	env := testEnv(t)
	h := NewServer(env, ServerOptions{Clock: func() time.Time { return fixedNow }}).Handler()
	b := env.Graph.Bounds()
	req := TripOfferingRequest{
		Waypoints: []LatLon{
			{Lat: b.Min.Lat + 0.005, Lon: b.Min.Lon + 0.005},
			{Lat: b.Center().Lat, Lon: b.Center().Lon},
			{Lat: b.Max.Lat - 0.005, Lon: b.Max.Lon - 0.005},
		},
		Depart: fixedNow, K: 4, RadiusM: 8000, ReuseDistM: 2500, SegmentLenM: 1500,
		Weights: WeightsJSON{L: 2, A: 1, D: 1},
	}
	jsonBody, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	plain := postTrip(t, h, ContentTypeJSON, jsonBody)
	if plain.Code != http.StatusOK {
		t.Fatalf("the JSON request: %d %s", plain.Code, plain.Body)
	}
	good := tripBlocksFor(t, env, &req)
	if len(good) < 2 {
		t.Fatalf("the trip computes %d segments; the test wants a few", len(good))
	}
	edit := func(fn func(*tripBlock)) []tripBlock {
		out := slices.Clone(good)
		fn(&out[1])
		return out
	}
	n := uint64(len(good))
	manySearches := func() uint64 { return obsCounter("roadnet_many_expansions_total") }
	for _, tc := range []struct {
		name     string
		blocks   []tripBlock
		used     uint64
		searches uint64
	}{
		{"no blocks", nil, 0, 2 * n},
		{"good", good, n, 0},
		{"wrong anchor", edit(func(b *tripBlock) { b.head.Anchor++ }), n - 1, 2},
		{"wrong return node", edit(func(b *tripBlock) { b.head.Return++ }), n - 1, 2},
		{"a candidate short", edit(func(b *tripBlock) {
			// Coverage goes by node: drop every entry of the farthest site's.
			far, all := b.nodes[len(b.nodes)-1], *b
			if far == b.head.Anchor || far == b.head.Return {
				t.Fatal("the farthest candidate sits on the segment's anchor or end; pick another trip")
			}
			b.nodes, b.out, b.back = nil, nil, nil
			for i, node := range all.nodes {
				if node != far {
					b.nodes, b.out, b.back = append(b.nodes, node), append(b.out, all.out[i]), append(b.back, all.back[i])
				}
			}
		}), n - 1, 2},
		{"node the graph does not have", edit(func(b *tripBlock) {
			b.nodes = append([]roadnet.NodeID{roadnet.NodeID(env.Graph.NumNodes())}, b.nodes...)
			b.out, b.back = append([]float64{1}, b.out...), append([]float64{1}, b.back...)
		}), n - 1, 2},
		{"another segment's", edit(func(b *tripBlock) { b.head.Segment++ }), n - 1, 2},
		{"one block too many", append(slices.Clone(good), tripBlock{head: wire.TripBlock{Segment: 1 << 20, ScaleLo: 1, ScaleHi: 1}}), n, 0},
	} {
		used0, rejected0, many0 := met.travelUsed.Value(), met.travelRejected.Value(), manySearches()
		rec := postTrip(t, h, wire.ContentType, encodeTrip(&req, tc.blocks))
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != ContentTypeJSON {
			t.Fatalf("%s: %d %s %s", tc.name, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
		}
		if !bytes.Equal(rec.Body.Bytes(), plain.Body.Bytes()) {
			t.Errorf("%s: the body differs from the one the JSON request gets", tc.name)
		}
		wantRejected := uint64(len(tc.blocks)) - tc.used
		if u, r := met.travelUsed.Value()-used0, met.travelRejected.Value()-rejected0; u != tc.used || r != wantRejected {
			t.Errorf("%s: used +%d rejected +%d, want +%d and +%d", tc.name, u, r, tc.used, wantRejected)
		}
		if got := manySearches() - many0; got != tc.searches {
			t.Errorf("%s: the shard started %d searches, want %d", tc.name, got, tc.searches)
		}
	}

	enc := encodeTrip(&req, good)
	for name, bad := range map[string][]byte{
		"truncated":        enc[:len(enc)-3],
		"trailing garbage": append(slices.Clone(enc), 0),
		"the other kind":   wire.AppendOfferingRequest(nil, &OfferingRequest{Lat: 53, Lon: 8, Now: fixedNow}),
		"JSON as binary":   jsonBody,
	} {
		if rec := postTrip(t, h, wire.ContentType, bad); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want a 400", name, rec.Code, rec.Body)
		}
	}
}
