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
	if _, ok := c.get(stale, fixedNow); !ok { // read: a read must not save it
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

// scanPut is put's rule as one pass over the stripe, for request times that
// never run backwards: every expired entry goes; then, when the stripe is
// full and the key is new, a key it admits (seen) takes the place of the
// entry closest to expiry, and any other is declined. It returns what put
// leaves of the stripe besides the key, and the entries the rule ranks equal
// as its victim (map order chose among those).
func scanPut(m map[cacheKey]cacheVal, per int, key cacheKey, seen bool, now time.Time) (kept map[cacheKey]cacheVal, victims []cacheKey, declined bool) {
	kept = make(map[cacheKey]cacheVal, len(m))
	for k, v := range m {
		if !now.After(v.expires) {
			kept[k] = v
		}
	}
	if _, exists := kept[key]; exists || len(kept) < per {
		return kept, nil, false
	}
	if !seen {
		return kept, nil, true
	}
	var at time.Time
	for k, v := range kept {
		if len(victims) == 0 || v.expires.Before(at) {
			victims, at = []cacheKey{k}, v.expires
		} else if v.expires.Equal(at) {
			victims = append(victims, k)
		}
	}
	return kept, victims, false
}

// TestRespCacheEvictionMatchesScan: over random puts, seen and unseen, and
// gets at times that never run backwards, the queue keeps the stripe exactly
// as the scan does — the same expired entries reclaimed, the same victim,
// the same declines. Keys are put again while cached and after they expired,
// which is what leaves stale slots in the queue.
func TestRespCacheEvictionMatchesScan(t *testing.T) {
	const (
		per = 8
		ttl = 5 * time.Minute
		ops = 128 // some ninety puts: past a compaction
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
			seen := rng.Intn(4) != 0
			want, victims, declined := scanPut(s.m, per, key, seen, now)
			c.put(key, seen, OfferingResponse{}, now, now.Add(ttl))

			var gone []cacheKey
			for k := range want {
				if _, ok := s.m[k]; !ok {
					gone = append(gone, k)
				}
			}
			if len(gone) != min(len(victims), 1) || (len(gone) == 1 && !slices.Contains(victims, gone[0])) {
				t.Fatalf("sequence %d op %d: %v left the stripe, the scan evicts one of %v", seq, op, gone, victims)
			}
			if _, stored := s.m[key]; stored == declined {
				t.Fatalf("sequence %d op %d: key stored %v, the scan declines it %v", seq, op, stored, declined)
			}
			if !declined {
				want[key] = cacheVal{}
			}
			if len(s.m) != len(want)-len(gone) {
				t.Fatalf("sequence %d op %d: stripe holds %d entries, the scan leaves %d", seq, op, len(s.m), len(want)-len(gone))
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
