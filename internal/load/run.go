package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ecocharge/internal/eis"
	"ecocharge/internal/obs"
	"ecocharge/internal/wire"
)

// Plane selects the interchange format the runner drives.
type Plane string

const (
	PlaneJSON Plane = "json"
	PlaneWire Plane = "wire"
)

// Options configure a Runner.
type Options struct {
	// BaseURL of the target: a gateway or a single EIS.
	BaseURL string
	// Plane selects JSON or binary wire bodies (both directions).
	Plane Plane
	// K and RadiusM parameterize every offering query. Zero selects the
	// server defaults (k=3, 50 km).
	K       int
	RadiusM float64
	// Now is stamped into requests so estimates evaluate at the scenario's
	// time base instead of the server wall clock. Zero lets the server
	// clock each request.
	Now time.Time
	// Timeout is the per-request deadline. 0 selects 10 s. The overload
	// contract asserts no response is observed beyond it.
	Timeout time.Duration
	// Workers bounds concurrent in-flight requests. 0 selects 64. The
	// open-loop schedule is unaffected — when all workers are busy,
	// arrivals queue with their intended timestamps and the wait is
	// measured, not skipped.
	Workers int
	// ClosedLoop switches the control mode used by the coordinated-
	// omission differential test: Workers sequential request loops,
	// latency measured from actual send. A stalled server then stops the
	// offered load itself, which is exactly the blind spot open-loop
	// measurement exists to avoid.
	ClosedLoop bool
}

func (o Options) withDefaults() Options {
	if o.Plane == "" {
		o.Plane = PlaneJSON
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.Workers <= 0 {
		o.Workers = 64
	}
	return o
}

// Result is the accounting of one run (one rate step).
type Result struct {
	Plane  Plane
	RateHz float64 // nominal offered rate
	Mode   string  // "open" or "closed"

	Offered int // arrivals scheduled
	Sent    int // requests actually issued (== Offered unless canceled)

	Valid    int // tabletest-valid, non-degraded 200s — the goodput bucket
	Degraded int // tabletest-valid 200s carrying a degraded marker
	Shed     int // 503 with parseable Retry-After
	Invalid  int // contract violations: corrupt/misordered 200s, bad 503s
	Errors   int // transport errors, timeouts, unexpected statuses

	Elapsed time.Duration // first intended arrival to last completion
	MaxLat  time.Duration // slowest single observation
	Latency *obs.Histogram

	// FirstViolation samples the first Invalid/Error explanation so sweep
	// reports can say *what* broke at the knee.
	FirstViolation string
}

// Goodput is the rate of valid, non-degraded answers per wall second.
func (r Result) Goodput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Valid) / r.Elapsed.Seconds()
}

// Runner drives offering queries against one target on one plane, on a
// client over eis.DefaultTransport tuned for Workers connections. Every
// query asks with the server's equal weights.
type Runner struct {
	opts   Options
	client *http.Client
}

// NewRunner validates the options.
func NewRunner(opts Options) (*Runner, error) {
	if opts.BaseURL == "" {
		return nil, fmt.Errorf("load: BaseURL required")
	}
	if opts.Plane != "" && opts.Plane != PlaneJSON && opts.Plane != PlaneWire {
		return nil, fmt.Errorf("load: unknown plane %q", opts.Plane)
	}
	opts = opts.withDefaults()
	return &Runner{opts: opts, client: &http.Client{
		Timeout:   opts.Timeout,
		Transport: eis.DefaultTransport(opts.Workers, opts.Plane == PlaneWire),
	}}, nil
}

// event is one scheduled arrival: the body of its query's request and the
// time it was *supposed* to start. Latency is measured against intended,
// never against the actual send — that difference is the
// coordinated-omission safety.
type event struct {
	intended time.Time
	body     []byte
}

// Run executes one rate step: it paces the schedule's arrivals from a
// single goroutine into a fully-buffered channel (the pacer can never be
// back-pressured by a slow server, preserving the open loop) and completes
// them on a bounded sender pool. It returns when every arrival completed
// or ctx is canceled.
func (r *Runner) Run(ctx context.Context, src *Sessions, sched Schedule, rateHz float64) (Result, error) {
	if len(sched) == 0 {
		return Result{}, fmt.Errorf("load: empty schedule")
	}
	res := Result{Plane: r.opts.Plane, RateHz: rateHz, Offered: len(sched), Mode: "open"}
	if r.opts.ClosedLoop {
		res.Mode = "closed"
	}
	// Every arrival's request body is encoded before the clock starts, so a
	// send's latency window, which opens at its intended arrival, holds the
	// exchange and not the encoding. A source that runs dry paces what it
	// gave and fails the step.
	bodies, srcErr := r.encode(src, len(sched))
	sched = sched[:len(bodies)]

	events := make(chan event, len(sched))
	var (
		counts    [outcomeCount]atomic.Int64
		sent      atomic.Int64
		maxLat    atomic.Int64
		violation atomic.Value // string
	)
	hist := &obs.Histogram{}

	var wg sync.WaitGroup
	for w := 0; w < r.opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range events {
				if ctx.Err() != nil {
					continue // drain without sending; Sent stays honest
				}
				sent.Add(1)
				lat, out, err := r.send(ctx, ev)
				hist.Observe(lat)
				counts[out].Add(1)
				for {
					cur := maxLat.Load()
					if int64(lat) <= cur || maxLat.CompareAndSwap(cur, int64(lat)) {
						break
					}
				}
				if err != nil {
					violation.CompareAndSwap(nil, fmt.Sprintf("%s: %v", out, err))
				}
			}
		}()
	}

	start := time.Now()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	pacerErr := srcErr
pace:
	for i, off := range sched {
		target := start.Add(off)
		if !r.opts.ClosedLoop {
			if d := time.Until(target); d > 0 {
				timer.Reset(d)
				select {
				case <-ctx.Done():
					pacerErr = ctx.Err()
					break pace
				case <-timer.C:
				}
			}
		}
		events <- event{intended: target, body: bodies[i]}
	}
	close(events)
	wg.Wait()

	res.Sent = int(sent.Load())
	res.Valid = int(counts[OutcomeValid].Load())
	res.Degraded = int(counts[OutcomeDegraded].Load())
	res.Shed = int(counts[OutcomeShed].Load())
	res.Invalid = int(counts[OutcomeInvalid].Load())
	res.Errors = int(counts[OutcomeError].Load())
	res.Elapsed = time.Since(start)
	res.MaxLat = time.Duration(maxLat.Load())
	res.Latency = hist
	if v, ok := violation.Load().(string); ok {
		res.FirstViolation = v
	}
	return res, pacerErr
}

// encode draws n queries from src and encodes each one's offering request
// on the runner's plane, the bodies back to back in one buffer; it stops at
// the first query src cannot give.
func (r *Runner) encode(src *Sessions, n int) ([][]byte, error) {
	var arena []byte
	ends := make([]int, 0, n)
	var err error
	for len(ends) < n {
		var q Query
		if q, err = src.Next(); err != nil {
			break
		}
		oreq := wire.OfferingRequest{
			Lat: q.Lat, Lon: q.Lon,
			K: r.opts.K, RadiusM: r.opts.RadiusM,
			Now: r.opts.Now, ETA: q.ETA,
		}
		if r.opts.Plane == PlaneWire {
			arena = wire.AppendOfferingRequest(arena, &oreq)
		} else {
			var b []byte
			if b, err = json.Marshal(oreq); err != nil {
				break
			}
			arena = append(arena, b...)
		}
		ends = append(ends, len(arena))
	}
	bodies := make([][]byte, len(ends))
	from := 0
	for i, end := range ends {
		bodies[i], from = arena[from:end:end], end
	}
	return bodies, err
}

// send issues one offering request and classifies the exchange. The
// returned latency is measured from the intended arrival (open loop) or
// from the actual send (closed-loop control runs); either way the clock
// stops only after the full body is read, so a slow or truncated body
// cannot report fast.
func (r *Runner) send(ctx context.Context, ev event) (time.Duration, Outcome, error) {
	reqCtx, cancel := context.WithTimeout(ctx, r.opts.Timeout)
	defer cancel()

	contentType := "application/json"
	if r.opts.Plane == PlaneWire {
		contentType = wire.ContentType
	}
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, r.opts.BaseURL+eis.APIVersion+"/offering", bytes.NewReader(ev.body))
	if err != nil {
		return 0, OutcomeError, err
	}
	req.Header.Set("Content-Type", contentType)
	if r.opts.Plane == PlaneWire {
		req.Header.Set("Accept", wire.ContentType)
	}

	from := ev.intended
	if r.opts.ClosedLoop {
		from = time.Now()
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return time.Since(from), OutcomeError, err
	}
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	_ = resp.Body.Close()
	lat := time.Since(from)
	if err != nil {
		return lat, OutcomeError, fmt.Errorf("reading body: %w", err)
	}
	out, cerr := Classify(resp.StatusCode, resp.Header, respBody, r.opts.K)
	return lat, out, cerr
}
