package load

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"ecocharge/internal/cknn"
	"ecocharge/internal/eis"
	"ecocharge/internal/fleet"
)

// InprocOptions size the in-process fleet StartInproc builds.
type InprocOptions struct {
	// Shards is the fleet width. 0 selects 3 (the shape loadgen and bench/ run).
	Shards int
	// MaxInFlight caps concurrent requests per shard; past it the shard
	// sheds 503+Retry-After. 0 disables shedding (the overload suite sets
	// it low on purpose).
	MaxInFlight int
	// RetryAfter stamps shed responses; 0 selects the middleware default.
	RetryAfter time.Duration
	// ShardTimeout, HedgeDelay: gateway fan-out knobs; zero selects the
	// fleet defaults.
	ShardTimeout time.Duration
	HedgeDelay   time.Duration
	// WireShards does nothing: a gateway always asks its shards for the
	// binary format. It stays for the callers that still set it.
	WireShards bool
	// Clock pins the shards' time base; nil selects time.Now.
	Clock func() time.Time
	// Server overrides the shard EIS options (cache granularity, ranking
	// workers, request deadline). The overload suite shrinks the cache
	// cell to force full rankings; zero keeps the production defaults.
	Server eis.ServerOptions
	// Wrap, when set, wraps every shard handler (fault injection hooks for
	// the coordinated-omission differential test).
	Wrap func(http.Handler) http.Handler
}

// Inproc is a live in-process fleet: N shard EIS servers partitioned from
// one environment plus a gateway fronting them, all on real loopback TCP
// listeners so the harness exercises the full HTTP stack it would against
// a deployed fleet. Close shuts everything down.
type Inproc struct {
	URL string // gateway base URL
	// ShardURLs are the member EIS bases, index-ordered. The overload
	// suite targets one directly: a saturated bare shard answers
	// 503+Retry-After, where the gateway in front would absorb the shed
	// into a degraded merge.
	ShardURLs []string

	servers []*http.Server
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// StartInproc partitions env across opts.Shards EIS servers and starts a
// gateway over them. The caller must Close the result.
func StartInproc(env *cknn.Env, opts InprocOptions) (*Inproc, error) {
	n := opts.Shards
	if n <= 0 {
		n = 3
	}
	ip := &Inproc{}
	ok := false
	defer func() {
		if !ok {
			ip.Close()
		}
	}()

	sopts := opts.Server
	if opts.Clock != nil {
		sopts.Clock = opts.Clock
	}
	shards := make([]fleet.Shard, n)
	for i := 0; i < n; i++ {
		se, err := fleet.ShardEnv(env, i, n)
		if err != nil {
			return nil, fmt.Errorf("load: shard %d: %w", i, err)
		}
		var h http.Handler = eis.NewServer(se, sopts).Handler()
		if opts.Wrap != nil {
			// Innermost, under the shedding middleware: injected service
			// latency holds an in-flight slot like real ranking work would.
			h = opts.Wrap(h)
		}
		if opts.MaxInFlight > 0 {
			mw := &eis.Middleware{MaxInFlight: opts.MaxInFlight, RetryAfter: opts.RetryAfter}
			h = mw.Wrap(h)
		}
		url, err := ip.serve(h)
		if err != nil {
			return nil, fmt.Errorf("load: shard %d: %w", i, err)
		}
		shards[i].URL = url
		ip.ShardURLs = append(ip.ShardURLs, url)
	}

	gw, err := fleet.NewGateway(shards, fleet.Options{
		ShardTimeout: opts.ShardTimeout,
		HedgeDelay:   opts.HedgeDelay,
		Env:          env,
	})
	if err != nil {
		return nil, fmt.Errorf("load: gateway: %w", err)
	}
	ip.URL, err = ip.serve(gw.Handler())
	if err != nil {
		return nil, fmt.Errorf("load: gateway: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ip.cancel = cancel
	ip.wg.Add(1)
	go func() {
		defer ip.wg.Done()
		gw.Run(ctx) // health probes; returns on cancel
	}()
	ok = true
	return ip, nil
}

// serve starts h on a loopback listener and returns its base URL.
func (ip *Inproc) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       time.Minute,
	}
	ip.servers = append(ip.servers, srv)
	ip.wg.Add(1)
	go func() {
		defer ip.wg.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			_ = err // listener torn down by Close; nothing to report
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// Close stops the probe loop and every listener, waiting for the serve
// goroutines to exit. Safe on a partially-started Inproc.
func (ip *Inproc) Close() {
	if ip.cancel != nil {
		ip.cancel()
	}
	for _, srv := range ip.servers {
		_ = srv.Close()
	}
	ip.wg.Wait()
}
