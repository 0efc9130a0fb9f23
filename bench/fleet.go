package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/cknn/tabletest"
	"ecocharge/internal/eis"
	"ecocharge/internal/experiment"
	"ecocharge/internal/interval"
	"ecocharge/internal/load"
	"ecocharge/internal/obs"
)

// fixture is one warmed system under test: the scenario, the in-process
// fleet over it, and the client the generator sends with.
type fixture struct {
	w      workload
	scen   *experiment.Scenario
	fleet  *load.Inproc
	client *http.Client
	reqs   []*request
	fill   []*request // cache-fill requests, when the workload has one-shot keys
	// cursor is the next unsent position of the request stream; phases draw
	// from it so a one-shot cache key is sent once per walk of the stream.
	cursor atomic.Int64
	// entries0 is the program's response-cache gauge before this fleet
	// started: the registry is process-wide and earlier fleets leave their
	// entries on it.
	entries0 float64
}

func (fx *fixture) close() {
	fx.client.CloseIdleConnections()
	fx.fleet.Close()
}

// next returns the request at the cursor and advances it, wrapping at the
// end of the stream (workload.rounds says why a wrap does not change the
// mix).
func (fx *fixture) next() *request {
	i := fx.cursor.Add(1) - 1
	return fx.reqs[int(i%int64(len(fx.reqs)))]
}

// take returns the next n requests of the stream.
func (fx *fixture) take(n int) []*request {
	out := make([]*request, n)
	for i := range out {
		out[i] = fx.next()
	}
	return out
}

// setUp builds the scenario, starts a fresh 3-shard fleet with production
// server defaults and warms it with the head of the request stream. The
// returned duration, plus that of fillCache, is what setup_s reports:
// everything the system does before the timed phases may begin. Request
// generation is the benchmark's own work and is not part of it. tap, when
// set, wraps every shard handler (the traced run's spans).
func setUp(w workload, reqs, fill []*request, tap *handlerTap) (*fixture, time.Duration, error) {
	start := time.Now()
	entries0 := obs.Default().Snapshot()[cacheEntriesGauge]
	scen, err := buildScenario()
	if err != nil {
		return nil, 0, err
	}
	opts := load.InprocOptions{Shards: shards, WireShards: true}
	if tap != nil {
		opts.Wrap = tap.wrap
	}
	fleet, err := load.StartInproc(scen.Env, opts)
	if err != nil {
		return nil, 0, err
	}
	nproc := runtime.GOMAXPROCS(0)
	fx := &fixture{
		w: w, scen: scen, fleet: fleet, reqs: reqs, fill: fill, entries0: entries0,
		client: &http.Client{
			Timeout:   10 * time.Second,
			Transport: eis.DefaultTransport(nproc, w.plane == load.PlaneWire),
		},
	}
	warm := make([]*request, 0, w.warmN)
	for _, r := range fx.take(w.warmN) {
		if !(w.warmSkipPersonal && r.personal) {
			warm = append(warm, r)
		}
	}
	senders := nproc
	if w.warmSequential {
		senders = 1
	}
	if err := fx.sendAll(warm, senders); err != nil {
		fx.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return fx, time.Since(start), nil
}

// cacheEntriesGauge is the program's count of live response-cache entries,
// summed over the shards of the process.
const cacheEntriesGauge = "eis_rescache_entries"

// fillCache sends fill requests, a batch at a time on nproc senders, until a
// whole batch leaves the cache gauge where it was: every stripe of every
// shard's cache is then at its capacity and each further put evicts. It
// runs after the quality pass, which reads the cache the sequential warm-up
// left and so scores the same tables on every run. Without fill requests
// it returns at once.
func (fx *fixture) fillCache() (time.Duration, error) {
	const batch = 512
	start := time.Now()
	entries := func() float64 { return obs.Default().Snapshot()[cacheEntriesGauge] - fx.entries0 }
	for rest := fx.fill; len(rest) > 0; rest = rest[min(batch, len(rest)):] {
		before := entries()
		if err := fx.sendAll(rest[:min(batch, len(rest))], runtime.GOMAXPROCS(0)); err != nil {
			return 0, fmt.Errorf("cache fill: %w", err)
		}
		after := entries()
		if after > shards*cacheEntries {
			return 0, fmt.Errorf("cache fill: the shards cache %.0f entries, the one-shot key streams are sized for %d a shard", after, cacheEntries)
		}
		if after <= before {
			return time.Since(start), nil
		}
	}
	if len(fx.fill) > 0 {
		return 0, fmt.Errorf("cache fill: the response caches were still growing after %d one-shot keys", len(fx.fill))
	}
	return 0, nil
}

// sendAll sends the requests on the given number of senders and fails on
// the first answer that is not a valid, non-degraded table.
func (fx *fixture) sendAll(reqs []*request, senders int) error {
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				ex := fx.send(reqs[i])
				if ex.outcome != load.OutcomeValid {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("request %d: %s: %v", i, ex.outcome, ex.err)
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// exchange is one completed request: when it went out, when the last body
// byte arrived, and what the answer was worth.
type exchange struct {
	sent, done time.Time
	outcome    load.Outcome
	err        error
	status     int
	header     http.Header
	body       []byte
}

// send performs one exchange through the gateway and classifies the answer.
// The clock stops after the whole body is read; validation runs after it.
func (fx *fixture) send(r *request) exchange {
	ex := fx.sendTo(fx.fleet.URL, r)
	if ex.err == nil {
		ex.outcome, ex.err = classify(r, ex.status, ex.header, ex.body)
	}
	return ex
}

// sendTo performs the raw exchange against one base URL.
func (fx *fixture) sendTo(base string, r *request) exchange {
	req, err := http.NewRequest(http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return exchange{outcome: load.OutcomeError, err: err}
	}
	req.Header.Set("Content-Type", r.contentType)
	if r.accept != "" {
		req.Header.Set("Accept", r.accept)
	}
	ex := exchange{sent: time.Now()}
	resp, err := fx.client.Do(req)
	if err != nil {
		ex.done, ex.outcome, ex.err = time.Now(), load.OutcomeError, err
		return ex
	}
	ex.body, err = io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	_ = resp.Body.Close() // body fully read or the read error is reported below
	ex.done = time.Now()
	ex.status, ex.header = resp.StatusCode, resp.Header
	if err != nil {
		ex.outcome, ex.err = load.OutcomeError, fmt.Errorf("reading body: %w", err)
	}
	return ex
}

// classify applies load.Classify to an offering answer and the same
// contract, segment by segment, to a trip answer.
func classify(r *request, status int, header http.Header, body []byte) (load.Outcome, error) {
	if !r.isTrip() || status != http.StatusOK {
		return load.Classify(status, header, body, tableK)
	}
	var resp eis.TripOfferingResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return load.OutcomeInvalid, fmt.Errorf("JSON body corrupt: %w", err)
	}
	if len(resp.Segments) == 0 {
		return load.OutcomeInvalid, fmt.Errorf("trip answer has no segments")
	}
	degraded := header.Get("X-Fleet-Degraded") != ""
	for _, seg := range resp.Segments {
		if err := tabletest.Err(tableOf(seg.Entries), tableK, tabletest.Options{}); err != nil {
			return load.OutcomeInvalid, fmt.Errorf("segment %d: %w", seg.SegmentIndex, err)
		}
		for _, e := range seg.Entries {
			degraded = degraded || e.Degraded != 0
		}
	}
	if degraded {
		return load.OutcomeDegraded, nil
	}
	return load.OutcomeValid, nil
}

// tableOf rebuilds an engine table from wire entries, which carry all that
// the tabletest invariants read.
func tableOf(entries []eis.OfferingEntry) cknn.OfferingTable {
	var tab cknn.OfferingTable
	stubs := make([]charger.Charger, len(entries))
	for i, e := range entries {
		stubs[i] = charger.Charger{ID: e.ChargerID}
		tab.Entries = append(tab.Entries, cknn.Entry{
			Charger: &stubs[i],
			SC:      interval.FromBounds(e.SC.Min, e.SC.Max),
			Comp: cknn.Components{
				L: e.L.Interval(), A: e.A.Interval(), D: e.D.Interval(),
				Degraded: cknn.Degraded(e.Degraded),
			},
		})
	}
	return tab
}
