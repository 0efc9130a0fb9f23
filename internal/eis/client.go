package eis

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/geo"
	"ecocharge/internal/obs"
	"ecocharge/internal/wire"
)

// maxResponseBytes bounds how much of a response body the client reads: a
// misbehaving server cannot make a vehicle buffer unbounded data.
const maxResponseBytes = 8 << 20

// The client's retry schedule, the same for every caller: an idempotent GET
// is re-attempted up to maxRetries times after a retryable failure, the
// first delay is backoffBase, and each further one doubles up to backoffCap.
// Each endpoint's breaker runs on NewBreaker's defaults.
const (
	maxRetries  = 3
	backoffBase = 100 * time.Millisecond
	backoffCap  = 2 * time.Second
)

// clientSeeds hands every client a jitter seed of its own, so clients that
// fail together do not retry in lockstep.
var clientSeeds atomic.Uint64

// ClientOptions are what a caller may hand the client; the zero value
// selects production defaults.
type ClientOptions struct {
	// HTTPClient performs the exchanges. Nil selects a default with a 10 s
	// timeout.
	HTTPClient *http.Client
	// Clock supplies the time for breaker cooldowns. Nil selects time.Now.
	// Tests inject a fake to step through breaker states without sleeping.
	Clock func() time.Time
	// Sleep waits between retries. Nil selects a context-aware timer wait.
	// Tests inject a recorder so the suite never sleeps for real.
	Sleep func(time.Duration)
	// Tracer exports one root span per logical request plus one child span
	// per attempt, and stamps the attempt's span context onto the outgoing
	// headers so the server joins the same trace. Nil disables tracing.
	Tracer *obs.Tracer
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.HTTPClient == nil {
		// The zero-config client gets the load-ready transport: the stdlib
		// default's 2 idle connections per host would re-dial TCP under any
		// real concurrency.
		o.HTTPClient = &http.Client{
			Timeout:   10 * time.Second,
			Transport: DefaultTransport(64, false),
		}
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// Client talks to an EcoCharge Information Server in JSON. It covers Mode 2
// (server-computed Offering Tables) and the data pulls Mode 3 edge
// computation needs.
//
// Resilience: idempotent GETs are retried with capped exponential backoff
// and deterministic jitter, honoring Retry-After and the request context;
// each endpoint carries a circuit breaker that fails fast (ErrCircuitOpen)
// during sustained outages and recovers through a half-open probe. POSTs are
// never retried (the exchange is not known to be idempotent) but share the
// breaker bookkeeping.
type Client struct {
	base     string
	opts     ClientOptions
	seed     uint64 // decorrelates this client's retry jitter from others'
	breakers breakerSet
}

// NewClient returns a client for the EIS at baseURL (e.g.
// "http://localhost:8080"). A nil httpClient selects a default with a 10 s
// timeout.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	return NewClientOpts(baseURL, ClientOptions{HTTPClient: httpClient})
}

// NewClientOpts returns a client with explicit options.
func NewClientOpts(baseURL string, opts ClientOptions) *Client {
	c := &Client{base: baseURL, opts: opts.withDefaults(), seed: clientSeeds.Add(1) * 0x9e3779b97f4a7c15}
	c.breakers = breakerSet{m: make(map[string]*Breaker), now: c.opts.Clock}
	return c
}

func (c *Client) get(ctx context.Context, path string, query url.Values, out interface{}) error {
	u := c.base + APIVersion + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("eis client: building request: %w", err)
	}
	return c.do(req, out)
}

func (c *Client) post(ctx context.Context, path string, body, out interface{}) error {
	data, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("eis client: encoding request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+APIVersion+path, bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("eis client: building request: %w", err)
	}
	req.Header.Set("Content-Type", ContentTypeJSON)
	return c.do(req, out)
}

// attemptOutcome classifies one exchange for the retry loop and the
// breaker.
type attemptOutcome struct {
	err        error
	retryable  bool          // worth re-attempting (idempotent methods only)
	fault      bool          // counts against the endpoint's breaker
	retryAfter time.Duration // server-requested delay (Retry-After), 0 if none
}

// do performs the exchange with retries (idempotent GETs only), backoff,
// and per-endpoint circuit breaking.
func (c *Client) do(req *http.Request, out interface{}) error {
	br := c.breakers.forEndpoint(req.URL.Path)
	retries := 0
	if req.Method == http.MethodGet {
		retries = maxRetries
	}
	// One root span covers the whole logical request: every retry attempt
	// below becomes a child of it, so a retried exchange still reads as one
	// trace with N attempt spans.
	rootCtx, rootSpan := c.opts.Tracer.StartSpan(req.Context(), "eis.client "+req.URL.Path)
	defer rootSpan.End()
	var last attemptOutcome
	for attempt := 0; ; attempt++ {
		if err := br.Allow(); err != nil {
			return fmt.Errorf("eis client: %s %s: %w", req.Method, req.URL.Path, err)
		}
		if attempt > 0 {
			met.clientRetries.Inc()
		}
		attemptCtx, attemptSpan := c.opts.Tracer.StartSpan(rootCtx, "eis.attempt")
		areq := req.Clone(req.Context())
		obs.InjectHTTP(attemptCtx, areq.Header)
		last = c.attempt(areq, out)
		attemptSpan.End()
		if last.fault {
			br.OnFailure()
		} else {
			br.OnSuccess()
		}
		if last.err == nil || !last.retryable || attempt >= retries {
			return last.err
		}
		if ctxErr := req.Context().Err(); ctxErr != nil {
			return last.err
		}
		delay := c.backoff(req.URL.Path, attempt)
		if last.retryAfter > 0 {
			delay = last.retryAfter
		}
		if err := c.wait(req.Context(), delay); err != nil {
			return last.err
		}
	}
}

// attempt performs a single exchange and classifies the result.
func (c *Client) attempt(req *http.Request, out interface{}) attemptOutcome {
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		// Transport-level failure: the server may never have seen the
		// request, so an idempotent retry is safe. A dead context is not
		// retryable — do checks it before sleeping.
		return attemptOutcome{
			err:       fmt.Errorf("eis client: %s %s: %w", req.Method, req.URL.Path, err),
			retryable: true,
			fault:     true,
		}
	}
	defer resp.Body.Close()
	// The body is read into a pooled buffer (the decoder copies out of it,
	// so releasing on return is safe); the old ReadAll grew a fresh slice
	// through O(log n) copies on every exchange.
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	if err := buf.ReadLimit(resp.Body, maxResponseBytes); err != nil {
		// The exchange died mid-body (connection reset, context cancelled).
		return attemptOutcome{
			err:       fmt.Errorf("eis client: reading response: %w", err),
			retryable: true,
			fault:     true,
		}
	}
	body := buf.B
	if len(body) > maxResponseBytes {
		// Oversized responses are truncated by policy, never buffered; the
		// server is misbehaving, not unreachable, so this is terminal.
		return attemptOutcome{
			err: fmt.Errorf("eis client: %s: response exceeds %d bytes", req.URL.Path, maxResponseBytes),
		}
	}
	if resp.StatusCode != http.StatusOK {
		return c.classifyStatus(req, resp, body)
	}
	if out == nil {
		return attemptOutcome{}
	}
	if err := json.Unmarshal(body, out); err != nil {
		// The server answered 200 with an unparseable body; retrying the
		// same request would decode the same garbage.
		return attemptOutcome{err: fmt.Errorf("eis client: decoding response: %w", err)}
	}
	return attemptOutcome{}
}

// classifyStatus maps a non-200 response to an outcome: overload and
// gateway statuses are retryable breaker faults honoring Retry-After, other
// statuses (validation errors and the like) are terminal answers.
func (c *Client) classifyStatus(req *http.Request, resp *http.Response, body []byte) attemptOutcome {
	msg := fmt.Errorf("eis client: %s: HTTP %d", req.URL.Path, resp.StatusCode)
	var e ErrorResponse
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = fmt.Errorf("eis client: %s: %s (HTTP %d)", req.URL.Path, e.Error, resp.StatusCode)
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		o := attemptOutcome{err: msg, retryable: true, fault: true}
		if d, ok := ParseRetryAfter(resp.Header.Get("Retry-After"), c.opts.Clock()); ok {
			o.retryAfter = d
		}
		return o
	default:
		return attemptOutcome{err: msg}
	}
}

// maxRetryAfter caps the delay a server can request through Retry-After: a
// misconfigured (or adversarial) upstream cannot park a vehicle's retry
// loop for an hour. The cap applies to both header forms.
const maxRetryAfter = 30 * time.Second

// ParseRetryAfter interprets a Retry-After header value per RFC 7231 §7.1.3:
// either a non-negative integer delay in seconds or an HTTP-date after which
// to retry. It returns the capped delay and whether the header asked for a
// positive wait. Dates are evaluated against now; past dates mean "retry
// whenever" and report false like a missing header.
func ParseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	var d time.Duration
	if s, err := strconv.Atoi(v); err == nil {
		if s <= 0 {
			return 0, false
		}
		d = time.Duration(s) * time.Second
	} else if at, err := http.ParseTime(v); err == nil {
		d = at.Sub(now)
		if d <= 0 {
			return 0, false
		}
	} else {
		return 0, false
	}
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d, true
}

// backoff computes the capped exponential delay for a retry with
// deterministic jitter in [50%, 100%] of the nominal delay, decorrelated
// per (client, endpoint, attempt) so lockstep clients spread out without
// any wall-clock or global-PRNG reads.
func (c *Client) backoff(endpoint string, attempt int) time.Duration {
	d := backoffBase << uint(attempt)
	if d > backoffCap || d <= 0 {
		d = backoffCap
	}
	h := c.seed
	for i := 0; i < len(endpoint); i++ {
		h = (h ^ uint64(endpoint[i])) * 1099511628211
	}
	h = (h ^ uint64(attempt)) * 1099511628211
	frac := float64(h>>11) / float64(1<<53) // uniform [0,1)
	return time.Duration((0.5 + 0.5*frac) * float64(d))
}

// wait sleeps for d or until the context dies, whichever is first. An
// injected Sleep (tests) is called unconditionally, then the context is
// consulted.
func (c *Client) wait(ctx context.Context, d time.Duration) error {
	if c.opts.Sleep != nil {
		c.opts.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// breakerSet lazily creates one breaker per endpoint path.
type breakerSet struct {
	mu  sync.Mutex
	m   map[string]*Breaker
	now func() time.Time
}

func (s *breakerSet) forEndpoint(path string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[path]
	if !ok {
		b = NewBreaker(0, 0, s.now)
		s.m[path] = b
	}
	return b
}

// Chargers fetches the chargers within radius meters of p.
func (c *Client) Chargers(ctx context.Context, p geo.Point, radiusM float64) ([]charger.Charger, error) {
	q := url.Values{}
	q.Set("lat", fmt.Sprintf("%f", p.Lat))
	q.Set("lon", fmt.Sprintf("%f", p.Lon))
	q.Set("radius_m", fmt.Sprintf("%f", radiusM))
	var out []charger.Charger
	if err := c.get(ctx, "/chargers", q, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Weather fetches the production forecast for a charger at time t.
func (c *Client) Weather(ctx context.Context, chargerID int64, t time.Time) (WeatherResponse, error) {
	q := url.Values{}
	q.Set("charger", fmt.Sprintf("%d", chargerID))
	q.Set("t", t.Format(time.RFC3339))
	var out WeatherResponse
	err := c.get(ctx, "/weather", q, &out)
	return out, err
}

// Availability fetches the availability estimate for a charger at time t.
func (c *Client) Availability(ctx context.Context, chargerID int64, t time.Time) (AvailabilityResponse, error) {
	q := url.Values{}
	q.Set("charger", fmt.Sprintf("%d", chargerID))
	q.Set("t", t.Format(time.RFC3339))
	var out AvailabilityResponse
	err := c.get(ctx, "/availability", q, &out)
	return out, err
}

// Traffic fetches the congestion band per road class at time t.
func (c *Client) Traffic(ctx context.Context, t time.Time) (TrafficResponse, error) {
	q := url.Values{}
	q.Set("t", t.Format(time.RFC3339))
	var out TrafficResponse
	err := c.get(ctx, "/traffic", q, &out)
	return out, err
}

// Offering requests a server-computed Offering Table (Mode 2).
func (c *Client) Offering(ctx context.Context, req OfferingRequest) (OfferingResponse, error) {
	var out OfferingResponse
	err := c.post(ctx, "/offering", &req, &out)
	return out, err
}

// Healthy reports whether the server answers its health check. It bypasses
// retries and breakers: health probes must observe the raw state.
func (c *Client) Healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}
