package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"ecocharge/internal/obs"
)

// An untraced run spends all of -seconds in the closed loop: every gated
// timing comes from it. A traced run spends a quarter each on a short
// closed and a short open phase (for the counters and the generator's
// numbers); the replay that follows is sized by its sample, not by the clock.
const (
	tracedClosedShare = 0.25
	tracedOpenShare   = 0.25
	// setupRead is how long the yardstick is read before and after each
	// set-up.
	setupRead = 250 * time.Millisecond
)

// result is one run of one workload: what the last stdout line summarises
// and what -compare reads back.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Traced    bool   `json:"traced"`
	Commit    string `json:"commit"`
	GoVersion string `json:"go_version"`
	Nproc     int    `json:"nproc"`
	Started   string `json:"started"`

	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Ungated are the load-layer numbers an untraced run also measured.
	Ungated map[string]value `json:"ungated,omitempty"`
	// Yardstick is what the stand-in fleet cost between the bursts of the
	// closed loop (medians over the cycles): the host's speed as this run
	// met it, and what workload.yard.nominal is set from.
	Yardstick map[string]float64 `json:"yardstick"`
	// Samples says how many observations stand behind the timed metrics.
	Samples map[string]int `json:"samples"`
	// Phases is the per-phase accounting of every answer.
	Phases map[string]counts `json:"phases"`
	// Notes flag what a reader must know before trusting a number.
	Notes []string `json:"notes,omitempty"`
	// Stages is the stage table of a traced run.
	Stages []stageRow `json:"stages,omitempty"`
}

// commitID is the VCS revision the binary was built from, when the build
// saw one.
func commitID() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// heapInUseMB is the live heap after a collection: what the caches and
// pools of the warmed fleet hold on to.
func heapInUseMB() float64 {
	// Twice: the first collection only moves sync.Pool contents to the
	// victim cache, the second frees them, so pool fill at the moment the
	// phases end does not show.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// runWorkload measures one workload. Untraced it reports the end-to-end
// metrics; traced it reports the per-layer ones and never the former, and
// returns the recorder holding the spans.
func runWorkload(w workload, seed int64, seconds int, traced bool) (*result, *recorder, error) {
	res := &result{
		Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced,
		Commit: commitID(), GoVersion: runtime.Version(), Nproc: runtime.GOMAXPROCS(0),
		Started: time.Now().UTC().Format(time.RFC3339),
		Samples: map[string]int{}, Phases: map[string]counts{},
	}
	m := metricSet{}

	// Every request exists before any clock starts.
	pregenStart := time.Now()
	scen, err := buildScenario()
	if err != nil {
		return nil, nil, err
	}
	reqs, fill, err := generate(w, scen, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("generating requests: %w", err)
	}
	m["load.pregen_s"] = time.Since(pregenStart).Seconds()

	yard := newYardstick(w.yard)
	defer yard.close()
	var (
		fx     *fixture
		setups []float64
		rec    *recorder
		tap    *handlerTap
	)
	reps := setupReps
	if traced {
		reps = 1
		rec = newRecorder()
		tap = &handlerTap{rec: rec}
	}
	// Each set-up is the warm-up and then the cache fill; the last one has
	// the quality pass in between, on the cache the sequential warm-up left.
	// The yardstick is read on either side of it, and the set-up time is
	// corrected by the host speed the two readings found.
	var quality qualityResult
	for i := 0; i < reps; i++ {
		if fx != nil {
			fx.close()
		}
		var warm, filled time.Duration
		before := yard.read(setupRead)
		if fx, warm, err = setUp(w, reqs, fill, tap); err != nil {
			return nil, nil, err
		}
		if i == reps-1 {
			quality, err = qualityPass(fx, w.sample)
			res.Phases["quality"] = quality.counts
		}
		if err == nil {
			filled, err = fx.fillCache()
		}
		if err != nil {
			fx.close()
			return nil, nil, err
		}
		after := yard.read(setupRead)
		speed := ratio((before.rps()+after.rps())/2, w.yard.nominal.rps)
		setups = append(setups, (warm+filled).Seconds()*speed)
	}
	defer fx.close()
	m["setup_s"] = median(setups)
	res.Samples["setup_s"] = len(setups)
	m["sc_pct"] = quality.scPct()
	m["cknn.brute_us"] = median(quality.bruteUS)
	res.Samples["sc_pct"] = quality.tables
	res.Samples["plane_pairs"] = quality.planePairs

	total := time.Duration(seconds) * time.Second
	closedFor := total
	var replaySample []*request
	if traced {
		closedFor = time.Duration(tracedClosedShare * float64(total))
		// Set aside now: how far the timed phases get into the stream
		// depends on the host, and the replayed requests must not.
		replaySample = fx.take(w.traceSample)
	}
	before := obs.Default().Snapshot()
	closed := closedLoop(fx, yard, closedFor)
	closedCounters := countersBetween(before, obs.Default().Snapshot())
	res.Phases["closed"] = closed.counts
	ops := float64(closed.counts.Valid)
	nominal := w.yard.nominal
	m["capacity_rps"] = closed.capacityRPS(nominal)
	m["svc_p50_ms"] = closed.p50MS(nominal)
	m["cpu_ms_op"] = closed.cpuMSPerOp(nominal)
	m["alloc_kb_op"] = closed.allocKBPerOp()
	// The same three as the clock read them, and what the yardstick said
	// of the host meanwhile.
	m["load.raw_capacity_rps"] = closed.over(func(c cycle) float64 { return c.work.rps() })
	m["load.raw_svc_p50_ms"] = percentile(closed.latMS, 0.50)
	m["load.raw_cpu_ms_op"] = closed.over(func(c cycle) float64 { return c.work.cpuMS() })
	m["load.svc_p99_ms"] = percentile(closed.latMS, 0.99)
	m["load.host_speed"] = closed.hostSpeed(nominal)
	res.Yardstick = map[string]float64{
		"rps":    closed.over(func(c cycle) float64 { return c.yard.rps() }),
		"cpu_ms": closed.over(func(c cycle) float64 { return c.yard.cpuMS() }),
		"p50_ms": closed.over(func(c cycle) float64 { return c.yard.p50MS() }),
	}
	res.Samples["closed"] = len(closed.latMS)
	res.Samples["closed_cycles"] = len(closed.cycles)
	if n := len(closed.latMS); n < 1000 {
		res.Notes = append(res.Notes, fmt.Sprintf("load.svc_p99_ms rests on %d samples, fewer than ten beyond it", n))
	}
	if len(closed.cycles) == 0 {
		return nil, nil, fmt.Errorf("the closed loop of %v completed no cycle of workload and yardstick", closedFor)
	}

	timed := closed.counts
	if traced {
		open, err := openLoop(fx, w.openRate, time.Duration(tracedOpenShare*float64(total)), seed)
		if err != nil {
			return nil, nil, err
		}
		res.Phases["open"] = open.counts
		timed.merge(open.counts)
		m["load.open_p50_ms"] = percentile(open.latMS, 0.50)
		m["load.open_p99_ms"] = percentile(open.latMS, 0.99)
		m["load.open_p999_ms"] = percentile(open.latMS, 0.999)
		m["load.gen_lag_p99_ms"] = percentile(open.lagMS, 0.99)
		m["load.achieved_rps"] = ratio(float64(open.counts.Sent), open.elapsed.Seconds())
		m["load.late_share"] = ratio(float64(open.late), float64(open.scheduled))
		res.Samples["open"] = len(open.latMS)
		if lag, p50 := m["load.gen_lag_p99_ms"], m["load.open_p50_ms"]; lag > 0.2*p50 {
			res.Notes = append(res.Notes, fmt.Sprintf("generator lag p99 %.3f ms is over a fifth of load.open_p50_ms %.3f ms: the open-loop tail is partly the generator's", lag, p50))
		}
	}

	m["heap_mb"] = heapInUseMB()

	m["load.fail_share"] = ratio(float64(timed.failed()), float64(timed.Sent))
	res.Attempted = quality.counts.Sent + timed.Sent
	res.Failed = quality.counts.failed() + timed.failed()

	defs := endToEnd
	if traced {
		defs = perLayer
		if err := loadCounters(m, closedCounters, ops); err != nil {
			return nil, nil, err
		}
		if res.Stages, err = tracedReplay(fx, rec, replaySample, m); err != nil {
			return nil, nil, err
		}
	}
	res.Metrics = m.values(defs)
	if !traced {
		// What the generator saw besides the gated metrics rides along,
		// ungated, so an untraced result explains itself.
		var load []metricDef
		for _, d := range perLayer {
			if _, ok := m[d.Name]; ok && strings.HasPrefix(d.Name, "load.") {
				load = append(load, d)
			}
		}
		res.Ungated = m.values(load)
	}
	res.Correct = res.Failed == 0
	return res, rec, nil
}
