package eis

// Admission to a full response cache (respCache.admits) and the single-flight
// around it: what a miss stores and what it declines, what it encodes, and
// who starts a timer.

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ecocharge/internal/cknn"
	"ecocharge/internal/wire"
)

// fillStripe puts the bound of key's stripe in entries of other keys,
// expiring at expires.
func fillStripe(c *respCache, key cacheKey, now, expires time.Time) []cacheKey {
	keys := stripeKeys(c, key, c.maxPerShard)
	for _, k := range keys {
		c.put(k, true, OfferingResponse{}, now, expires)
	}
	return keys
}

// noShare is the share of a flight whose leader always caches its table.
func noShare(t *testing.T) func() []byte {
	return func() []byte {
		t.Error("a leader whose table was cached encoded hit bytes")
		return nil
	}
}

// TestRespCacheAdmission: a miss stores its table when the stripe has room,
// or when the stripe is full and the key was asked for within its TTL — then
// the oldest entry makes room. A full stripe declines any other key: nothing
// is stored, nothing evicted, and declining allocates nothing. So a hot entry
// of a full stripe survives ten times the stripe's capacity in unseen keys,
// the one-shot personalised rankings of real traffic.
func TestRespCacheAdmission(t *testing.T) {
	const ttl = cacheTTL
	now := fixedNow
	for _, tc := range []struct {
		name string
		// fill is how long before now the stripe's entries expire; zero
		// leaves the stripe empty.
		fill time.Duration
		// asked is when the key was asked for before, relative to now.
		asked  []time.Duration
		stored bool
	}{
		{name: "room", stored: true},
		{name: "full, unseen", fill: -time.Hour},
		{name: "full, seen within the TTL", fill: -time.Hour, asked: []time.Duration{-ttl}, stored: true},
		{name: "full, seen longer ago than the TTL", fill: -time.Hour, asked: []time.Duration{-ttl - time.Second}},
		{name: "full of expired entries, unseen", fill: time.Minute, stored: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var seen SeenFilter
			c := respCache{maxPerShard: cacheMaxEntries / respCacheStripes}
			key := cacheKey{cellLat: 7000, k: 3}
			for _, d := range tc.asked {
				seen.Observe(key.hash(), now.Add(d))
			}
			filled := []cacheKey{{}}
			if tc.fill != 0 {
				filled = fillStripe(&c, key, now.Add(-2*time.Hour), now.Add(-tc.fill))
			}
			s := c.shard(key)
			before := len(s.m)
			evictions, declined := met.rescacheEvictions.Value(), met.rescacheDeclined.Value()

			admitted := c.admits(key, seen.Observe(key.hash(), now), now)
			if admitted != tc.stored {
				t.Fatalf("admitted %v, want %v", admitted, tc.stored)
			}
			if !admitted {
				if got := met.rescacheDeclined.Value() - declined; got != 1 {
					t.Fatalf("%d declines counted, want 1", got)
				}
				if !raceEnabled {
					if n := testing.AllocsPerRun(100, func() { c.admits(key, false, now) }); n != 0 {
						t.Fatalf("declining a table allocates %.0f times", n)
					}
				}
				if len(s.m) != before || met.rescacheEvictions.Value() != evictions {
					t.Fatalf("a declined table changed the stripe: %d entries of %d, %d evictions", len(s.m), before, met.rescacheEvictions.Value()-evictions)
				}
				hot := filled[0]
				for i, k := range stripeKeys(&c, key, 11*c.maxPerShard)[c.maxPerShard:] {
					if i%3 == 0 {
						if _, ok := c.get(hot, now); !ok {
							t.Fatalf("the hot entry was evicted within %d unseen puts", i)
						}
					}
					c.put(k, false, OfferingResponse{}, now, now.Add(ttl))
				}
				if _, ok := c.get(hot, now); !ok || len(s.m) != before || met.rescacheEvictions.Value() != evictions {
					t.Fatalf("unseen puts into a full stripe: the hot entry kept %v, %d entries of %d, %d evictions", ok, len(s.m), before, met.rescacheEvictions.Value()-evictions)
				}
				return
			}
			c.put(key, true, OfferingResponse{}, now, now.Add(ttl))
			if _, ok := c.get(key, now); !ok {
				t.Fatal("an admitted table is not cached")
			}
			evicted := met.rescacheEvictions.Value() - evictions
			_, oldest := s.m[filled[0]]
			switch {
			case tc.fill == 0 && (evicted != 0 || len(s.m) != before+1):
				t.Fatalf("a stripe with room evicted %d entries and holds %d", evicted, len(s.m))
			case tc.fill < 0 && (evicted != 1 || len(s.m) != before || oldest):
				t.Fatalf("a full stripe evicted %d entries for a key it admitted (the oldest one: %v), want that one", evicted, !oldest)
			case tc.fill > 0 && (evicted != 0 || len(s.m) != 1):
				t.Fatalf("a stripe of expired entries evicted %d live ones and holds %d", evicted, len(s.m))
			}
		})
	}
}

// TestFlightGroupLeaderStartsNoTimer: a leader runs to completion whatever
// its context says, so it builds no context and no timer for the request
// deadline: leading a flight allocates as much with the deadline on as off.
func TestFlightGroupLeaderStartsNoTimer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var g flightGroup
	key := cacheKey{cellLat: 3}
	lead := func() cacheVal { return cacheVal{wireBody: []byte("entry")} }
	allocs := func(timeout time.Duration) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, shared, err := g.do(context.Background(), timeout, key, lead, noShare(t)); shared || err != nil {
				t.Fatalf("a lone caller did not lead: shared=%v err=%v", shared, err)
			}
		})
	}
	if on, off := allocs(time.Hour), allocs(-1); on != off {
		t.Fatalf("leading a flight allocates %.0f times with the deadline on and %.0f with it off", on, off)
	}
}

// TestFlightGroupFollowerTimesOut: a follower gives up its wait once the
// timeout it was handed has passed.
func TestFlightGroupFollowerTimesOut(t *testing.T) {
	var g flightGroup
	key := cacheKey{cellLat: 4}
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	go g.do(context.Background(), 0, key, func() cacheVal {
		close(started)
		<-release
		return cacheVal{}
	}, func() []byte { return nil })
	<-started
	const timeout = 30 * time.Millisecond
	start := time.Now()
	_, shared, err := g.do(context.Background(), timeout, key, func() cacheVal {
		t.Error("a follower led")
		return cacheVal{}
	}, noShare(t))
	if elapsed := time.Since(start); !shared || !errors.Is(err, context.DeadlineExceeded) || elapsed < timeout {
		t.Fatalf("follower: shared=%v err=%v after %v, want a deadline error after %v", shared, err, elapsed, timeout)
	}
}

// gate is a fault policy that fails nothing but holds every fetch until it
// is opened: a ranking that started stays in flight.
type gate struct {
	entered, open chan struct{}
	once          sync.Once
}

func (g *gate) FetchOK(cknn.Component, int64, time.Time) bool {
	g.once.Do(func() { close(g.entered) })
	<-g.open
	return true
}

// TestFlightGroupDeclinedLeaderFollower: requests that join a computation
// whose table a full stripe declines are answered, on either plane, with the
// bytes a hit on the table gets.
func TestFlightGroupDeclinedLeaderFollower(t *testing.T) {
	env := testEnv(t)
	g := &gate{entered: make(chan struct{}), open: make(chan struct{})}
	gated := *env
	gated.Faults = g
	clock := func() time.Time { return fixedNow }
	srv := NewServer(&gated, ServerOptions{Clock: clock})
	h := srv.Handler()

	anchor := env.Chargers.All()[0].P
	req := OfferingRequest{Lat: anchor.Lat, Lon: anchor.Lon, K: 3, Weights: WeightsJSON{L: 2, A: 1, D: 1}, Now: fixedNow}
	o, err := ResolveOffering(&req, clock)
	if err != nil {
		t.Fatal(err)
	}
	fillStripe(&srv.cache, offeringKey(&o), fixedNow, fixedNow.Add(time.Hour))
	body := wire.AppendOfferingRequest(nil, &req)
	post := func(accept string) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, APIVersion+"/offering", bytes.NewReader(body))
		r.Header.Set("Content-Type", wire.ContentType)
		r.Header.Set("Accept", accept)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec
	}

	declined, joined := met.rescacheDeclined.Value(), met.flightCoalesced.Value()
	accepts := []string{wire.ContentType, ContentTypeJSON}
	followers := make([]*httptest.ResponseRecorder, len(accepts))
	var leader *httptest.ResponseRecorder
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		leader = post(wire.ContentType)
	}()
	<-g.entered
	for i, accept := range accepts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			followers[i] = post(accept)
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); met.flightCoalesced.Value() < joined+uint64(len(accepts)); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the followers never joined the flight")
		}
	}
	close(g.open)
	wg.Wait()
	if leader.Code != http.StatusOK {
		t.Fatalf("leader answered %d %.200s", leader.Code, leader.Body)
	}
	if got := met.rescacheDeclined.Value() - declined; got != 1 {
		t.Fatalf("%d tables declined, want the leader's", got)
	}
	// The key was asked for before: the next miss is cached, and what
	// follows it is a hit.
	if again := post(wire.ContentType); !bytes.Equal(again.Body.Bytes(), leader.Body.Bytes()) {
		t.Fatalf("the table changed when it was computed again\nfirst: %.200s\nagain: %.200s", leader.Body, again.Body)
	}
	for i, accept := range accepts {
		hit := post(accept)
		if got := followers[i]; got.Code != http.StatusOK || hit.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), hit.Body.Bytes()) {
			t.Fatalf("Accept %q: the follower got %d %.200s, a hit %d %.200s", accept, got.Code, got.Body, hit.Code, hit.Body)
		}
	}
}

// TestOfferingEncodesCounted: every encode of a computed table counts on the
// encode histograms, the cache's copy included — two wire encodes for an
// admitted miss answered in binary, a wire and a JSON encode for one answered
// in JSON, one for a declined miss — and a wire hit, which writes stored
// bytes, counts none.
func TestOfferingEncodesCounted(t *testing.T) {
	env := testEnv(t)
	clock := func() time.Time { return fixedNow }
	srv := NewServer(env, ServerOptions{Clock: clock})
	h := srv.Handler()
	anchor := env.Chargers.All()[0].P
	for _, tc := range []struct {
		name       string
		k          int // the key: the hit repeats the first
		accept     string
		full       bool
		wire, json uint64
	}{
		{"admitted, binary", 3, wire.ContentType, false, 2, 0},
		{"hit, binary", 3, wire.ContentType, false, 0, 0},
		{"admitted, JSON", 4, ContentTypeJSON, false, 1, 1},
		{"declined, binary", 5, wire.ContentType, true, 1, 0},
	} {
		req := OfferingRequest{Lat: anchor.Lat, Lon: anchor.Lon, K: tc.k, Now: fixedNow}
		if tc.full {
			o, err := ResolveOffering(&req, clock)
			if err != nil {
				t.Fatal(err)
			}
			fillStripe(&srv.cache, offeringKey(&o), fixedNow, fixedNow.Add(time.Hour))
		}
		wire0, json0 := met.encodeWire.Count(), met.encodeJSON.Count()
		r := httptest.NewRequest(http.MethodPost, APIVersion+"/offering", bytes.NewReader(wire.AppendOfferingRequest(nil, &req)))
		r.Header.Set("Content-Type", wire.ContentType)
		r.Header.Set("Accept", tc.accept)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: answered %d %.200s", tc.name, rec.Code, rec.Body)
		}
		if w, j := met.encodeWire.Count()-wire0, met.encodeJSON.Count()-json0; w != tc.wire || j != tc.json {
			t.Fatalf("%s: %d wire and %d JSON encodes counted, want %d and %d", tc.name, w, j, tc.wire, tc.json)
		}
	}
}

// TestRespCachePutRechecksAdmission: two unseen keys both pass admits while
// their stripe has room for one of them. The first put takes the room; the
// second finds the stripe full and declines, as admits would have: nothing
// is evicted or stored, the decline is counted, and the bytes it encoded are
// still handed back for the leader's followers.
func TestRespCachePutRechecksAdmission(t *testing.T) {
	c := respCache{maxPerShard: 2}
	read := cacheKey{cellLat: 9000, k: 3}
	keys := stripeKeys(&c, read, 2)
	expires := fixedNow.Add(time.Hour)
	c.put(read, true, OfferingResponse{}, fixedNow, expires)
	if _, ok := c.get(read, fixedNow); !ok {
		t.Fatal("the read entry is not cached")
	}
	for _, k := range keys {
		if !c.admits(k, false, fixedNow) {
			t.Fatalf("a stripe with room declined %v", k)
		}
	}
	evictions, declined := met.rescacheEvictions.Value(), met.rescacheDeclined.Value()
	c.put(keys[0], false, OfferingResponse{}, fixedNow, expires)
	v := c.put(keys[1], false, OfferingResponse{}, fixedNow, expires)
	s := c.shard(read)
	if _, stored := s.m[keys[1]]; stored || len(s.m) != 2 || met.rescacheEvictions.Value() != evictions {
		t.Fatalf("a full stripe stored the unseen key %v (%v) and evicted %d entries", keys[1], stored, met.rescacheEvictions.Value()-evictions)
	}
	if _, kept := s.m[keys[0]]; !kept {
		t.Fatalf("the key stored first, %v, is gone", keys[0])
	}
	if got := met.rescacheDeclined.Value() - declined; got != 1 {
		t.Fatalf("%d declines counted, want 1", got)
	}
	if v.wireBody == nil {
		t.Fatal("a declined put handed back no bytes for the followers")
	}
}

// TestFlightGroupLeaderPanicEndsFlight: a leader that panics ends its flight.
// The follower that waited on it is answered at once, not when its deadline
// runs out, and the next caller of the key leads.
func TestFlightGroupLeaderPanicEndsFlight(t *testing.T) {
	var g flightGroup
	key := cacheKey{cellLat: 5}
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		defer func() { _ = recover() }()
		g.do(context.Background(), 0, key, func() cacheVal {
			close(started)
			<-release
			panic("ranking failed")
		}, func() []byte { return nil })
	}()
	<-started
	joined := func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		f := g.m[key]
		return f != nil && f.joined
	}
	const timeout = 2 * time.Second
	type answer struct {
		shared  bool
		err     error
		elapsed time.Duration
	}
	follower := make(chan answer, 1)
	go func() {
		start := time.Now()
		_, shared, err := g.do(context.Background(), timeout, key, func() cacheVal {
			t.Error("a follower led")
			return cacheVal{}
		}, noShare(t))
		follower <- answer{shared, err, time.Since(start)}
	}()
	for deadline := time.Now().Add(5 * time.Second); !joined(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the follower never joined the flight")
		}
	}
	close(release)
	<-done
	a := <-follower
	if !a.shared || a.err == nil || errors.Is(a.err, context.DeadlineExceeded) || a.elapsed >= timeout/2 {
		t.Fatalf("follower of a panicked leader: shared=%v err=%v after %v, want an error at once", a.shared, a.err, a.elapsed)
	}
	led := false
	_, shared, err := g.do(context.Background(), 200*time.Millisecond, key, func() cacheVal {
		led = true
		return cacheVal{wireBody: []byte("entry")}
	}, noShare(t))
	if !led || shared || err != nil {
		t.Fatalf("the next caller of the key: led=%v shared=%v err=%v, want it to lead", led, shared, err)
	}
}
