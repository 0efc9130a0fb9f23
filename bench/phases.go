package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"ecocharge/internal/load"
)

// counts is the per-phase accounting every result carries.
type counts struct {
	Sent     int `json:"sent"`
	Valid    int `json:"valid"`
	Degraded int `json:"degraded"`
	Shed     int `json:"shed"`
	Invalid  int `json:"invalid"`
	Error    int `json:"error"`
	// FirstViolation explains the first answer that was not valid.
	FirstViolation string `json:"first_violation,omitempty"`
}

func (c *counts) add(ex exchange) {
	c.Sent++
	switch ex.outcome {
	case load.OutcomeValid:
		c.Valid++
	case load.OutcomeDegraded:
		c.Degraded++
	case load.OutcomeShed:
		c.Shed++
	case load.OutcomeInvalid:
		c.Invalid++
	default:
		c.Error++
	}
	if ex.outcome != load.OutcomeValid && c.FirstViolation == "" {
		c.FirstViolation = ex.outcome.String()
		if ex.err != nil {
			c.FirstViolation += ": " + ex.err.Error()
		}
	}
}

func (c *counts) merge(o counts) {
	c.Sent += o.Sent
	c.Valid += o.Valid
	c.Degraded += o.Degraded
	c.Shed += o.Shed
	c.Invalid += o.Invalid
	c.Error += o.Error
	if c.FirstViolation == "" {
		c.FirstViolation = o.FirstViolation
	}
}

// failed counts every answer that is not a valid, non-degraded 200.
func (c counts) failed() int { return c.Sent - c.Valid }

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocatedBytes is the cumulative heap allocation of the process, read
// without stopping the world.
func allocatedBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// burstResult is what nproc callers, each sending its next request as soon
// as the previous one is answered, got done in one short stretch.
type burstResult struct {
	ops   int // answers that counted
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	lat   []time.Duration // of the answers that counted, per caller in turn
}

func (b burstResult) rps() float64   { return ratio(float64(b.ops), b.wall.Seconds()) }
func (b burstResult) cpuMS() float64 { return ratio(millis(b.cpu), float64(b.ops)) }
func (b burstResult) p50MS() float64 { return percentile(durationsToMillis(b.lat), 0.50) }

// burst runs op on nproc callers back to back until d has passed and the
// requests then in flight are answered. op returns how long its request took
// and whether it counts.
func burst(d time.Duration, op func(caller int) (time.Duration, bool)) burstResult {
	callers := runtime.GOMAXPROCS(0)
	lats := make([][]time.Duration, callers)
	cpu0, alloc0, start := cpuTime(), allocatedBytes(), time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range lats {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if took, ok := op(c); ok {
					lats[c] = append(lats[c], took)
				}
			}
		}(c)
	}
	wg.Wait()
	res := burstResult{wall: time.Since(start), cpu: cpuTime() - cpu0, alloc: allocatedBytes() - alloc0}
	for _, l := range lats {
		res.lat = append(res.lat, l...)
	}
	res.ops = len(res.lat)
	return res
}

// read is one yardstick reading: what the stand-in fleet gets done just now.
func (y *yardstick) read(d time.Duration) burstResult {
	return burst(d, func(int) (time.Duration, bool) {
		start := time.Now()
		ok := y.exchange()
		return time.Since(start), ok
	})
}

// The closed loop alternates a burst of the workload with a burst of the
// yardstick. The pair is short because the host's speed changes within a
// second; a 15 s run holds 66 of them.
const (
	workBurst = 150 * time.Millisecond
	yardBurst = 75 * time.Millisecond
)

// cycle is one such pair.
type cycle struct{ work, yard burstResult }

// closedResult is what nproc back-to-back callers saw over all the cycles.
type closedResult struct {
	counts counts
	latMS  []float64 // ascending, from actual send, valid answers only
	cycles []cycle   // those in which both bursts got something done
}

// closedLoop runs cycles for d. A caller sends its next request as soon as
// the previous answer is validated; latency runs from the actual send to the
// last body byte.
func closedLoop(fx *fixture, y *yardstick, d time.Duration) closedResult {
	var res closedResult
	parts := make([]counts, runtime.GOMAXPROCS(0))
	var lat []time.Duration
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		c := cycle{work: burst(workBurst, func(caller int) (time.Duration, bool) {
			ex := fx.send(fx.next())
			parts[caller].add(ex)
			return ex.done.Sub(ex.sent), ex.outcome == load.OutcomeValid
		})}
		c.yard = y.read(yardBurst)
		lat = append(lat, c.work.lat...)
		if c.work.ops > 0 && c.yard.ops > 0 {
			res.cycles = append(res.cycles, c)
		}
	}
	for _, p := range parts {
		res.counts.merge(p)
	}
	res.latMS = durationsToMillis(lat)
	return res
}

// over is the median over the cycles of f.
func (r closedResult) over(f func(cycle) float64) float64 {
	v := make([]float64, len(r.cycles))
	for i, c := range r.cycles {
		v[i] = f(c)
	}
	return median(v)
}

// The gated timings: in each cycle the workload's figure relative to the
// yardstick's of the same moment, the median of that over the run, scaled
// by the yardstick's nominal cost. A neighbour that slows the host for a
// second, or for the whole run, slows both bursts of a pair and cancels.
func (r closedResult) capacityRPS(nominal yardCost) float64 {
	return nominal.rps * r.over(func(c cycle) float64 { return ratio(c.work.rps(), c.yard.rps()) })
}

func (r closedResult) cpuMSPerOp(nominal yardCost) float64 {
	return nominal.cpuMS * r.over(func(c cycle) float64 { return ratio(c.work.cpuMS(), c.yard.cpuMS()) })
}

func (r closedResult) p50MS(nominal yardCost) float64 {
	return nominal.p50MS * r.over(func(c cycle) float64 { return ratio(c.work.p50MS(), c.yard.p50MS()) })
}

// allocKBPerOp does not depend on the host's speed and is not corrected.
func (r closedResult) allocKBPerOp() float64 {
	return r.over(func(c cycle) float64 { return ratio(float64(c.work.alloc)/1024, float64(c.work.ops)) })
}

// hostSpeed is the yardstick's throughput during the run as a share of its
// nominal one: 1 on the host of the baseline, 0.5 on one half as fast.
func (r closedResult) hostSpeed(nominal yardCost) float64 {
	return ratio(r.over(func(c cycle) float64 { return c.yard.rps() }), nominal.rps)
}

// openResult is what a fixed arrival schedule saw.
type openResult struct {
	counts    counts
	scheduled int
	late      int // failed, refused, or slower than the limit from intended send
	elapsed   time.Duration
	latMS     []float64 // ascending, from intended send, valid answers only
	lagMS     []float64 // ascending, actual minus intended send of arrivals a free sender slept for
}

// openLoop sends on a seeded Poisson schedule fixed before the first
// request: nproc senders each claim the next arrival, sleep until it is
// due and send it. Latency runs from the intended send time, so a stall
// delays later arrivals on the record instead of thinning the load.
func openLoop(fx *fixture, rate float64, d time.Duration, seed int64) (openResult, error) {
	n := int(rate * d.Seconds())
	if n < 1 {
		n = 1
	}
	sched, err := load.Poisson(rate, n, seed)
	if err != nil {
		return openResult{}, err
	}
	reqs := fx.take(n)
	senders := runtime.GOMAXPROCS(0)
	type part struct {
		counts   counts
		late     int
		lat, lag []time.Duration
	}
	parts := make([]part, senders)
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	start := time.Now()
	for s := range parts {
		wg.Add(1)
		go func(p *part) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				intended := start.Add(sched[i])
				wait := time.Until(intended)
				if wait > 0 {
					time.Sleep(wait)
				}
				ex := fx.send(reqs[i])
				p.counts.add(ex)
				if wait > 0 {
					// The sender was free and slept: what it overslept is the
					// generator's own lateness. An arrival claimed after its
					// time waited behind busy senders, which is backlog and
					// already inside its latency.
					p.lag = append(p.lag, ex.sent.Sub(intended))
				}
				lat := ex.done.Sub(intended)
				if ex.outcome == load.OutcomeValid {
					p.lat = append(p.lat, lat)
				}
				if ex.outcome != load.OutcomeValid || lat > fx.w.limit {
					p.late++
				}
			}
		}(&parts[s])
	}
	wg.Wait()
	res := openResult{scheduled: n, elapsed: time.Since(start)}
	var lat, lag []time.Duration
	for _, p := range parts {
		res.counts.merge(p.counts)
		res.late += p.late
		lat = append(lat, p.lat...)
		lag = append(lag, p.lag...)
	}
	res.latMS, res.lagMS = durationsToMillis(lat), durationsToMillis(lag)
	return res, nil
}
