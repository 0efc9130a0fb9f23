package eis

// The response-cache hit path: what a full stripe evicts, and where the
// request deadline is (and is not) installed.

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"ecocharge/internal/cknn"
	"ecocharge/internal/wire"
)

// stripeKeys returns n distinct keys that share a stripe with like.
func stripeKeys(c *respCache, like cacheKey, n int) []cacheKey {
	var out []cacheKey
	for i := int64(1); len(out) < n; i++ {
		if k := (cacheKey{cellLat: like.cellLat + i}); c.shard(k) == c.shard(like) {
			out = append(out, k)
		}
	}
	return out
}

// TestRespCacheKeepsReadEntries: a stripe at capacity keeps the entry that
// is read now and then through ten times its capacity in one-shot puts. All
// entries get one TTL, so the read entry is also the closest to expiry — the
// one the old rule evicted first.
func TestRespCacheKeepsReadEntries(t *testing.T) {
	const per = 8
	c := respCache{maxPerShard: per}
	hot := cacheKey{cellLat: 1000}
	expires := fixedNow.Add(5 * time.Minute)
	c.put(hot, true, OfferingResponse{}, fixedNow, expires)
	for i, k := range stripeKeys(&c, hot, 10*per) {
		if i%3 == 0 {
			if _, ok := c.get(hot, fixedNow); !ok {
				t.Fatalf("the read entry was evicted within %d one-shot puts", i)
			}
		}
		c.put(k, true, OfferingResponse{}, fixedNow, expires)
	}
	if _, ok := c.get(hot, fixedNow); !ok {
		t.Fatal("the read entry did not survive the one-shot puts")
	}
	if n := len(c.shard(hot).m); n != per {
		t.Fatalf("stripe holds %d entries, want its capacity %d", n, per)
	}
}

// TestRespCacheEvictsExpiredFirst: an expired entry goes before any live
// one, read or not, and its removal is an expiry, not an eviction.
func TestRespCacheEvictsExpiredFirst(t *testing.T) {
	const per = 8
	c := respCache{maxPerShard: per}
	stale := cacheKey{cellLat: 2000}
	keys := stripeKeys(&c, stale, per)
	live, extra := keys[:per-1], keys[per-1]
	later := fixedNow.Add(time.Minute)

	c.put(stale, true, OfferingResponse{}, fixedNow, fixedNow.Add(time.Second))
	if _, ok := c.get(stale, fixedNow); !ok { // read: the mark must not save it
		t.Fatal("fresh entry missed")
	}
	for _, k := range live {
		c.put(k, true, OfferingResponse{}, fixedNow, fixedNow.Add(time.Hour))
	}
	evictions := met.rescacheEvictions.Value()
	c.put(extra, true, OfferingResponse{}, later, later.Add(time.Hour))

	s := c.shard(stale)
	if _, ok := s.m[stale]; ok {
		t.Fatal("the expired entry survived an eviction pass")
	}
	for _, k := range append(live, extra) {
		if _, ok := s.m[k]; !ok {
			t.Fatalf("live entry %v evicted while an expired one was in the stripe", k)
		}
	}
	if got := met.rescacheEvictions.Value() - evictions; got != 0 {
		t.Fatalf("reclaiming an expired entry counted %d evictions", got)
	}
}

// TestRespCacheSecondChance: when every entry of a full stripe has been
// read, the closest to expiry goes and the others lose their mark — the next
// put evicts one of them unless it was read again.
func TestRespCacheSecondChance(t *testing.T) {
	const per = 4
	c := respCache{maxPerShard: per}
	first := cacheKey{cellLat: 3000}
	keys := append([]cacheKey{first}, stripeKeys(&c, first, per+1)...)
	for i, k := range keys[:per] {
		c.put(k, true, OfferingResponse{}, fixedNow, fixedNow.Add(time.Duration(i+1)*time.Minute))
		c.get(k, fixedNow)
	}
	s := c.shard(first)
	c.put(keys[per], true, OfferingResponse{}, fixedNow, fixedNow.Add(time.Hour))
	if _, ok := s.m[keys[0]]; ok {
		t.Fatal("with every entry read, the closest to expiry should have gone")
	}
	c.get(keys[1], fixedNow) // read again: keeps its place
	c.put(keys[per+1], true, OfferingResponse{}, fixedNow, fixedNow.Add(time.Hour))
	if _, ok := s.m[keys[1]]; !ok {
		t.Fatal("an entry read after the marks were cleared was evicted")
	}
	if _, ok := s.m[keys[2]]; ok {
		t.Fatal("the unread entry closest to expiry should have gone")
	}
}

// scanEvict is the eviction rule as one pass over the stripe, the form it had
// before the queue: every expired entry goes, and nothing else; otherwise an
// unread entry beats a read one and between equals the one closer to expiry
// goes, a read one starting a new round. It returns what a full stripe loses
// to make room — for a victim, every entry the rule ranks equal, since map
// order chose among those.
func scanEvict(m map[cacheKey]cacheVal, round uint32, now time.Time) (expired, victims []cacheKey, victimRead bool) {
	var at time.Time
	for k, v := range m {
		if now.After(v.expires) {
			expired = append(expired, k)
			continue
		}
		read := v.readRound > round
		if len(victims) == 0 || (victimRead && !read) || (victimRead == read && v.expires.Before(at)) {
			victims, at, victimRead = []cacheKey{k}, v.expires, read
		} else if victimRead == read && v.expires.Equal(at) {
			victims = append(victims, k)
		}
	}
	if len(expired) > 0 {
		return expired, nil, false
	}
	return nil, victims, victimRead
}

// TestRespCacheEvictionMatchesScan: over random puts and gets at times that
// never run backwards, the queue makes room exactly as the scan did — the
// same expired entries reclaimed, the same victim, the same rounds. Keys are
// put again while cached and after they expired, which is what leaves stale
// slots in the queue.
func TestRespCacheEvictionMatchesScan(t *testing.T) {
	const (
		per = 8
		ttl = 5 * time.Minute
		ops = 128 // some ninety puts: past one sweep
	)
	sequences := int64(10000)
	if raceEnabled {
		sequences /= 10 // one goroutine: the detector only slows it
	}
	steps := []time.Duration{0, 0, 0, time.Second, 20 * time.Second, 2 * time.Minute}
	for seq := int64(0); seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(seq))
		c := respCache{maxPerShard: per}
		pool := stripeKeys(&c, cacheKey{cellLat: 4000}, 2*per+int(seq%per))
		s := c.shard(pool[0])
		now := fixedNow
		for op := 0; op < ops; op++ {
			now = now.Add(steps[rng.Intn(len(steps))])
			key := pool[rng.Intn(len(pool))]
			if rng.Intn(3) == 0 {
				c.get(key, now)
				continue
			}
			// What the scan leaves of the stripe, put's sweep included.
			want := make(map[cacheKey]cacheVal, len(s.m))
			for k, v := range s.m {
				if (s.puts+1)%sweepEvery != 0 || !now.After(v.expires) {
					want[k] = v
				}
			}
			var victims []cacheKey
			round := s.round
			if _, exists := want[key]; !exists && len(want) >= per {
				expired, tied, victimRead := scanEvict(want, s.round, now)
				for _, k := range expired {
					delete(want, k)
				}
				victims = tied
				if victimRead {
					round++
				}
			}
			c.put(key, true, OfferingResponse{}, now, now.Add(ttl))

			var gone []cacheKey
			for k := range want {
				if _, ok := s.m[k]; !ok {
					gone = append(gone, k)
				}
			}
			if len(gone) != min(len(victims), 1) || (len(gone) == 1 && !slices.Contains(victims, gone[0])) {
				t.Fatalf("sequence %d op %d: %v left the stripe, the scan evicts one of %v", seq, op, gone, victims)
			}
			want[key] = cacheVal{}
			if len(s.m) != len(want)-len(gone) {
				t.Fatalf("sequence %d op %d: stripe holds %d entries, the scan leaves %d", seq, op, len(s.m), len(want)-len(gone))
			}
			if s.round != round {
				t.Fatalf("sequence %d op %d: round %d, the scan is in round %d", seq, op, s.round, round)
			}
			if n := cap(s.queue); n > c.queueLimit() {
				t.Fatalf("sequence %d op %d: queue of %d slots for a stripe of %d", seq, op, n, per)
			}
		}
	}
}

// offeringHit returns the handler of a server over env and a wire request
// whose cell is already cached.
func offeringHit(t *testing.T, env *cknn.Env, opts ServerOptions) (*Server, http.Handler, func() *http.Request) {
	t.Helper()
	opts.Clock = func() time.Time { return fixedNow }
	srv := NewServer(env, opts)
	h := srv.Handler()
	anchor := env.Chargers.All()[0].P
	body := wire.AppendOfferingRequest(nil, &OfferingRequest{Lat: anchor.Lat, Lon: anchor.Lon, K: 3, Now: fixedNow})
	request := func() *http.Request {
		r := httptest.NewRequest(http.MethodPost, APIVersion+"/offering", bytes.NewReader(body))
		r.Header.Set("Content-Type", wire.ContentType)
		r.Header.Set("Accept", wire.ContentType)
		return r
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, request())
	if rec.Code != http.StatusOK {
		t.Fatalf("warming request: %d %s", rec.Code, rec.Body)
	}
	return srv, h, request
}

// TestOfferingHitBuildsNoDeadline: a cache hit costs the same allocations
// with the request deadline on as with it off — no context, timer or
// request copy is built for a handler that returns without waiting.
func TestOfferingHitBuildsNoDeadline(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	env := testEnv(t)
	allocs := func(timeout time.Duration) float64 {
		_, h, request := offeringHit(t, env, ServerOptions{RequestTimeout: timeout})
		return testing.AllocsPerRun(200, func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, request())
			if rec.Code != http.StatusOK {
				t.Fatalf("hit answered %d", rec.Code)
			}
		})
	}
	if on, off := allocs(0), allocs(-1); on != off {
		t.Fatalf("a hit allocates %.0f times with the deadline on and %.0f with it off", on, off)
	}
}

// TestOfferingStuckComputationSheds: a request that joins a computation
// which never finishes answers 503 with Retry-After once RequestTimeout has
// passed, instead of holding the connection.
func TestOfferingStuckComputationSheds(t *testing.T) {
	env := testEnv(t)
	const timeout = 50 * time.Millisecond
	srv, h, request := offeringHit(t, env, ServerOptions{RequestTimeout: timeout})

	// Empty the cache and plant a leader that never completes.
	anchor := env.Chargers.All()[0].P
	key := offeringKey(&Offering{P: anchor, K: 3, RadiusM: 50000, Weights: cknn.EqualWeights()})
	s := srv.cache.shard(key)
	s.mu.Lock()
	if _, ok := s.m[key]; !ok {
		s.mu.Unlock()
		t.Fatal("the warmed cell is not under the key the test derived")
	}
	delete(s.m, key)
	s.mu.Unlock()
	srv.flights.mu.Lock()
	srv.flights.m = map[cacheKey]*flight{key: {done: make(chan struct{})}}
	srv.flights.mu.Unlock()

	start := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, request())
	elapsed := time.Since(start)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("stuck computation answered %d %s, want 503", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Retry-After"); got != RetryAfter {
		t.Fatalf("Retry-After %q, want %q", got, RetryAfter)
	}
	if elapsed < timeout || elapsed > timeout+5*time.Second {
		t.Fatalf("answered after %v with a %v deadline", elapsed, timeout)
	}
}
