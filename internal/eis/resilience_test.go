package eis

// Client-resilience tests: retry/backoff/Retry-After against a scripted
// http.RoundTripper (no real server, no real sleeps), circuit-breaker state
// walks on a fake clock, single-flight collapse, and the response-cache
// hygiene (sweep, lazy delete, bounded eviction).

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ecocharge/internal/cknn"
	"ecocharge/internal/wire"
)

// scriptStep is one scripted exchange of a scriptTripper.
type scriptStep struct {
	err    error
	status int
	body   string
	header http.Header
}

// scriptTripper replays a fixed sequence of responses; the last step
// repeats once the script is exhausted.
type scriptTripper struct {
	mu    sync.Mutex
	steps []scriptStep
	calls int
}

func (s *scriptTripper) RoundTrip(*http.Request) (*http.Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.calls
	s.calls++
	if i >= len(s.steps) {
		i = len(s.steps) - 1
	}
	st := s.steps[i]
	if st.err != nil {
		return nil, st.err
	}
	h := make(http.Header)
	for k, v := range st.header {
		h[k] = v
	}
	return &http.Response{
		StatusCode: st.status,
		Header:     h,
		Body:       io.NopCloser(strings.NewReader(st.body)),
	}, nil
}

func (s *scriptTripper) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// sleepRecorder captures retry delays instead of sleeping.
type sleepRecorder struct {
	mu    sync.Mutex
	slept []time.Duration
}

func (r *sleepRecorder) sleep(d time.Duration) {
	r.mu.Lock()
	r.slept = append(r.slept, d)
	r.mu.Unlock()
}

func (r *sleepRecorder) durations() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.slept...)
}

func scriptedClient(tr *scriptTripper, rec *sleepRecorder) *Client {
	return NewClientOpts("http://eis.test", ClientOptions{HTTPClient: &http.Client{Transport: tr}, Sleep: rec.sleep})
}

var errBoom = errors.New("connection refused")

func TestClientRetriesTransientFailures(t *testing.T) {
	tr := &scriptTripper{steps: []scriptStep{
		{err: errBoom},
		{status: http.StatusServiceUnavailable, body: `{"error":"overloaded"}`,
			header: http.Header{"Retry-After": []string{"2"}}},
		{status: http.StatusOK, body: `{"multiplier":{}}`},
	}}
	rec := &sleepRecorder{}
	c := scriptedClient(tr, rec)
	if _, err := c.Traffic(context.Background(), time.Unix(0, 0)); err != nil {
		t.Fatalf("Traffic after two transient failures: %v", err)
	}
	if got := tr.callCount(); got != 3 {
		t.Fatalf("transport saw %d attempts, want 3", got)
	}
	slept := rec.durations()
	if len(slept) != 2 {
		t.Fatalf("recorded %d sleeps, want 2: %v", len(slept), slept)
	}
	// First delay: 100 ms base with jitter in [50%, 100%].
	if slept[0] < 50*time.Millisecond || slept[0] > 100*time.Millisecond {
		t.Errorf("first backoff %v outside the jittered [50ms, 100ms]", slept[0])
	}
	// Second delay: the server's Retry-After overrides the exponential.
	if slept[1] != 2*time.Second {
		t.Errorf("Retry-After ignored: slept %v, want 2s", slept[1])
	}
}

func TestClientRetryBudgetExhausted(t *testing.T) {
	tr := &scriptTripper{steps: []scriptStep{{err: errBoom}}}
	rec := &sleepRecorder{}
	c := scriptedClient(tr, rec)
	if _, err := c.Traffic(context.Background(), time.Unix(0, 0)); err == nil {
		t.Fatal("permanently failing endpoint reported success")
	}
	if got := tr.callCount(); got != 1+maxRetries {
		t.Fatalf("transport saw %d attempts, want %d (1 + %d retries)", got, 1+maxRetries, maxRetries)
	}
	// Backoff doubles from backoffBase, each delay jittered into [50%, 100%].
	for i, d := range rec.durations() {
		if nominal := backoffBase << i; d < nominal/2 || d > nominal {
			t.Errorf("retry %d slept %v, outside [%v, %v]", i+1, d, nominal/2, nominal)
		}
	}
}

// TestClientsRetryApart: two clients failing against the same endpoint back
// off by different delays — clients that fail together must not retry in
// lockstep.
func TestClientsRetryApart(t *testing.T) {
	a, b := NewClient("http://eis.test", nil), NewClient("http://eis.test", nil)
	const endpoint = APIVersion + "/traffic"
	same := 0
	for attempt := 0; attempt < maxRetries; attempt++ {
		if a.backoff(endpoint, attempt) == b.backoff(endpoint, attempt) {
			same++
		}
	}
	if same == maxRetries {
		t.Fatalf("two clients back off by the same %d delays", maxRetries)
	}
}

func TestClientDoesNotRetryPOST(t *testing.T) {
	tr := &scriptTripper{steps: []scriptStep{{err: errBoom}}}
	rec := &sleepRecorder{}
	c := scriptedClient(tr, rec)
	if _, err := c.Offering(context.Background(), OfferingRequest{Lat: 53, Lon: 8}); err == nil {
		t.Fatal("failed POST reported success")
	}
	if got := tr.callCount(); got != 1 {
		t.Fatalf("non-idempotent POST attempted %d times, want 1", got)
	}
	if s := rec.durations(); len(s) != 0 {
		t.Fatalf("POST slept %v; must not back off", s)
	}
}

func TestClientDoesNotRetryClientErrors(t *testing.T) {
	tr := &scriptTripper{steps: []scriptStep{
		{status: http.StatusNotFound, body: `{"error":"charger 9 not found"}`},
	}}
	c := scriptedClient(tr, &sleepRecorder{})
	_, err := c.Weather(context.Background(), 9, time.Unix(0, 0))
	if err == nil || !strings.Contains(err.Error(), "charger 9 not found") {
		t.Fatalf("server message lost: %v", err)
	}
	if got := tr.callCount(); got != 1 {
		t.Fatalf("terminal 404 attempted %d times, want 1", got)
	}
}

func TestClientNonJSONErrorBody(t *testing.T) {
	tr := &scriptTripper{steps: []scriptStep{
		{status: http.StatusInternalServerError, body: "<html>gateway exploded</html>"},
	}}
	c := scriptedClient(tr, &sleepRecorder{})
	_, err := c.Traffic(context.Background(), time.Unix(0, 0))
	if err == nil || !strings.Contains(err.Error(), "HTTP 500") {
		t.Fatalf("non-JSON error body mishandled: %v", err)
	}
	if got := tr.callCount(); got != 1 {
		t.Fatalf("500 attempted %d times, want 1 (not in the retryable set)", got)
	}
}

// midBodyCancel is a response body that serves a partial payload, then
// cancels the request context and fails the next read — the deterministic
// form of "the connection died while the body was streaming".
type midBodyCancel struct {
	cancel context.CancelFunc
	sent   bool
}

func (b *midBodyCancel) Read(p []byte) (int, error) {
	if !b.sent {
		b.sent = true
		return copy(p, `{"multiplier":`), nil
	}
	b.cancel()
	return 0, context.Canceled
}

func (b *midBodyCancel) Close() error { return nil }

type midBodyTripper struct {
	cancel context.CancelFunc
	calls  int
}

func (m *midBodyTripper) RoundTrip(*http.Request) (*http.Response, error) {
	m.calls++
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     make(http.Header),
		Body:       &midBodyCancel{cancel: m.cancel},
	}, nil
}

// TestClientContextCancelMidBody cancels the request context after the
// response headers arrive but before the body completes: the client must
// surface the read failure promptly and must not retry against a dead
// context.
func TestClientContextCancelMidBody(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &midBodyTripper{cancel: cancel}
	rec := &sleepRecorder{}
	c := NewClientOpts("http://eis.test", ClientOptions{
		HTTPClient: &http.Client{Transport: tr},
		Sleep:      rec.sleep,
	})
	start := time.Now()
	_, err := c.Traffic(ctx, time.Unix(0, 0))
	if err == nil {
		t.Fatal("mid-body cancellation reported success")
	}
	if !strings.Contains(err.Error(), "reading response") {
		t.Errorf("expected a body-read failure, got: %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("mid-body cancellation not honored promptly")
	}
	if tr.calls != 1 {
		t.Fatalf("client attempted %d exchanges against a dead context, want 1", tr.calls)
	}
	if s := rec.durations(); len(s) != 0 {
		t.Fatalf("client backed off %v against a dead context", s)
	}
}

func TestClientReportsOversizeExplicitly(t *testing.T) {
	tr := &scriptTripper{steps: []scriptStep{
		{status: http.StatusOK, body: strings.Repeat("x", (8<<20)+5)},
	}}
	c := scriptedClient(tr, &sleepRecorder{})
	_, err := c.Traffic(context.Background(), time.Unix(0, 0))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized body not reported as such: %v", err)
	}
	if got := tr.callCount(); got != 1 {
		t.Fatalf("oversized response attempted %d times, want 1", got)
	}
}

func TestFlightGroupCollapses(t *testing.T) {
	var g flightGroup
	key := cacheKey{cellLat: 1}
	started := make(chan struct{})
	release := make(chan struct{})
	computed := 0
	leaderDone := make(chan cacheVal, 1)
	go func() {
		v, shared, err := g.do(context.Background(), 0, key, func() cacheVal {
			close(started)
			<-release
			computed++
			return cacheVal{wireBody: []byte("entry"), expires: fixedNow}
		}, noShare(t))
		if err != nil || shared {
			t.Errorf("leader: shared=%v err=%v", shared, err)
		}
		leaderDone <- v
	}()
	<-started

	const followers = 4
	var wg sync.WaitGroup
	results := make([]bool, followers)
	for i := 0; i < followers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := g.do(context.Background(), 0, key, func() cacheVal {
				t.Error("follower computed despite an in-flight leader")
				return cacheVal{}
			}, noShare(t))
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
			results[i] = shared && string(v.wireBody) == "entry" && v.expires.Equal(fixedNow)
		}()
	}
	// Give followers a moment to park on the flight, then release.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	<-leaderDone
	if computed != 1 {
		t.Fatalf("computed %d times, want 1", computed)
	}
	for i, ok := range results {
		if !ok {
			t.Fatalf("follower %d did not receive the shared leader result", i)
		}
	}
}

func TestFlightGroupFollowerHonorsContext(t *testing.T) {
	var g flightGroup
	key := cacheKey{cellLat: 2}
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		_, _, _ = g.do(context.Background(), 0, key, func() cacheVal {
			close(started)
			<-release
			return cacheVal{}
		}, func() []byte { return nil })
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := g.do(ctx, 0, key, func() cacheVal { return cacheVal{} }, noShare(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned follower returned %v, want context.Canceled", err)
	}
}

func TestOfferingComputedOnceThenCached(t *testing.T) {
	env := testEnv(t)
	srv := NewServer(env, ServerOptions{Clock: func() time.Time { return fixedNow }})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())

	anchor := env.Chargers.All()[0].P
	req := OfferingRequest{Lat: anchor.Lat, Lon: anchor.Lon, K: 3, Now: fixedNow}
	first, err := client.Offering(context.Background(), req)
	if err != nil {
		t.Fatalf("first offering: %v", err)
	}
	if first.Cached {
		t.Error("first response claims to be cached")
	}
	second, err := client.Offering(context.Background(), req)
	if err != nil {
		t.Fatalf("second offering: %v", err)
	}
	if !second.Cached {
		t.Error("second identical request missed the response cache")
	}
	if got := srv.computes.Load(); got != 1 {
		t.Fatalf("server computed %d tables, want 1", got)
	}

	// A request that joins a computation is answered from the entry the
	// leader stored: on either plane, the bytes a later hit gets. The entry
	// is taken out of the cache and handed to a planted flight.
	key := offeringKey(&Offering{P: anchor, K: 3, RadiusM: 50000, Weights: cknn.EqualWeights()})
	s := srv.cache.shard(key)
	s.mu.Lock()
	entry, ok := s.m[key]
	delete(s.m, key)
	s.mu.Unlock()
	if !ok {
		t.Fatal("the cached cell is not under the key the test derived")
	}
	f := &flight{done: make(chan struct{})}
	srv.flights.mu.Lock()
	srv.flights.m = map[cacheKey]*flight{key: f}
	srv.flights.mu.Unlock()
	h, body := srv.Handler(), wire.AppendOfferingRequest(nil, &req)
	post := func(accept string) *httptest.ResponseRecorder {
		r := httptest.NewRequest(http.MethodPost, APIVersion+"/offering", bytes.NewReader(body))
		r.Header.Set("Content-Type", wire.ContentType)
		r.Header.Set("Accept", accept)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec
	}
	accepts := []string{wire.ContentType, ContentTypeJSON}
	followers := make([]*httptest.ResponseRecorder, len(accepts))
	joined := met.flightCoalesced.Value()
	var wg sync.WaitGroup
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
	s.mu.Lock()
	s.m[key] = entry
	s.mu.Unlock()
	f.val = entry
	close(f.done)
	wg.Wait()
	for i, accept := range accepts {
		hit := post(accept)
		if got := followers[i]; got.Code != http.StatusOK || hit.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), hit.Body.Bytes()) {
			t.Fatalf("Accept %q: the follower got %d %.200s, a hit %d %.200s", accept, got.Code, got.Body, hit.Code, hit.Body)
		}
	}
}

func TestRespCacheLazyDeleteOnGet(t *testing.T) {
	c := respCache{maxPerShard: cacheMaxEntries / respCacheStripes}
	key := cacheKey{cellLat: 1, cellLon: 2, k: 3}
	c.put(key, true, OfferingResponse{}, fixedNow, fixedNow.Add(time.Minute))
	if n := c.entries(); n != 1 {
		t.Fatalf("entries after put: %d", n)
	}
	if _, ok := c.get(key, fixedNow.Add(2*time.Minute)); ok {
		t.Fatal("expired entry served")
	}
	if n := c.entries(); n != 0 {
		t.Fatalf("expired entry not reclaimed on get: %d entries", n)
	}
}

// TestRespCacheSweepReclaimsExpired: puts reclaim the expired entries at
// the head of their stripe's queue, all of them, in a cache that never
// fills.
func TestRespCacheSweepReclaimsExpired(t *testing.T) {
	// The server's bound: 2 560 keys over the stripes stay under it, so no
	// stripe evicts and only the puts' reclaim can delete the dead entries.
	c := respCache{maxPerShard: cacheMaxEntries / respCacheStripes}
	// Fill with entries that are already expired by the time the second
	// batch arrives; the first batch-2 put into each stripe reclaims them.
	const dead = 512
	for i := 0; i < dead; i++ {
		c.put(cacheKey{cellLat: int64(i)}, true, OfferingResponse{}, fixedNow, fixedNow.Add(time.Second))
	}
	later := fixedNow.Add(time.Hour)
	const live = 2048
	var perStripe [respCacheStripes]int
	for i := 0; i < dead; i++ {
		perStripe[cacheKey{cellLat: int64(i)}.hash()%respCacheStripes]++
	}
	for i := 0; i < live; i++ {
		perStripe[cacheKey{cellLat: int64(i), cellLon: 1}.hash()%respCacheStripes]++
	}
	for i, n := range perStripe {
		if n >= c.maxPerShard {
			t.Fatalf("stripe %d gets %d keys, at the bound of %d: eviction, not expiry, would reclaim", i, n, c.maxPerShard)
		}
	}
	for i := 0; i < live; i++ {
		c.put(cacheKey{cellLat: int64(i), cellLon: 1}, true, OfferingResponse{}, later, later.Add(time.Hour))
	}
	if n := c.entries(); n != live {
		t.Fatalf("cache holds %d entries, want the %d live ones: %d of the %d expired were not reclaimed", n, live, n-live, dead)
	}
}

func TestRespCacheBoundedEviction(t *testing.T) {
	c := respCache{maxPerShard: 4}
	for i := 0; i < 500; i++ {
		c.put(cacheKey{cellLat: int64(i)}, true, OfferingResponse{}, fixedNow, fixedNow.Add(time.Duration(i)*time.Minute))
	}
	if n, bound := c.entries(), 4*respCacheStripes; n > bound {
		t.Fatalf("bounded cache holds %d entries, want at most %d", n, bound)
	}
}

// entries reports the total cached-entry count.
func (c *respCache) entries() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
