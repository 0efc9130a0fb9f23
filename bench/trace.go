package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ecocharge/internal/eis"
)

// span is one timed call at a layer boundary, recorded by the benchmark
// around the call. Spans of one request share Trace; Parent is the span
// that caused this one (0 for a root).
type span struct {
	Trace  string `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Shard  int    `json:"shard"` // -1 when the call is not per shard
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Replay marks a span timed after the request it belongs to, by calling
	// the layer again with the same input. Its duration counts; its position
	// on the clock does not.
	Replay bool `json:"replay,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// traceCtx is where shard handler calls attach while a traced request is in
// flight. The traced run sends one request at a time, so one slot is enough.
type traceCtx struct {
	trace  string
	name   string // span name the handler tap records under
	parent int
}

// recorder keeps every span in memory until the run ends.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int64
	cur    atomic.Pointer[traceCtx]
	// handlers counts tapped shard handlers that have started and not yet
	// recorded their span. A handler's span ends after its last write, and
	// the client can have the whole body before that: whoever reads the
	// spans of a request waits here first. The handler starts before any
	// byte of its answer exists, so its Add precedes the reader's Wait.
	handlers sync.WaitGroup

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// reserve hands out a span ID before the span ends, so that children
// recorded meanwhile can name their parent.
func (r *recorder) reserve() int { return int(r.nextID.Add(1)) }

func (r *recorder) put(id int, trace, name string, parent, shard int, start, end time.Time, replay bool) {
	s := span{
		Trace: trace, ID: id, Parent: parent, Name: name, Shard: shard,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)), Replay: replay,
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// replay times fn as a replayed child span and returns its ID and duration.
func (r *recorder) replay(trace, name string, parent int, fn func()) (int, time.Duration) {
	id := r.reserve()
	start := time.Now()
	fn()
	end := time.Now()
	r.put(id, trace, name, parent, -1, start, end, true)
	return id, end.Sub(start)
}

// childrenOf returns the spans recorded so far under one parent.
func (r *recorder) childrenOf(parent int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Parent == parent {
			out = append(out, s)
		}
	}
	return out
}

// derived records a replayed span whose duration was computed, not timed.
func (r *recorder) derived(trace, name string, parent int, d time.Duration) {
	r.put(r.reserve(), trace, name, parent, -1, r.epoch, r.epoch.Add(d), true)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return "", err
	}
	return path, f.Close()
}

// handlerTap wraps each shard's handler (load.InprocOptions.Wrap) so the
// traced run sees the shard-side span of the very request it is timing at
// the gateway: same request, same cache state, no second fleet.
type handlerTap struct {
	rec    *recorder
	shards int
}

func (t *handlerTap) wrap(h http.Handler) http.Handler {
	shard := t.shards
	t.shards++
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := t.rec.cur.Load()
		// Health probes and inventory pulls share the handler; only the
		// offering endpoints belong to a traced request.
		if ctx == nil || !strings.HasPrefix(r.URL.Path, eis.APIVersion+"/offering") {
			h.ServeHTTP(w, r)
			return
		}
		t.rec.handlers.Add(1)
		defer t.rec.handlers.Done()
		id := t.rec.reserve()
		start := time.Now()
		h.ServeHTTP(w, r)
		t.rec.put(id, ctx.trace, ctx.name, ctx.parent, shard, start, time.Now(), false)
	})
}

// liveCover is how much of a span its in-request children cover: the union
// of their intervals, clipped to the span.
func liveCover(s span, children []span) int64 {
	var live []span
	for _, c := range children {
		if !c.Replay {
			live = append(live, c)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Start < live[j].Start })
	var covered int64
	edge := s.Start
	for _, c := range live {
		lo, hi := max(c.Start, edge), min(c.End, s.End)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return covered
}

// selfTimes returns each span's own time: its duration minus what its
// children cover of it. Children timed inside the parent cover the union of
// their intervals, clipped to the parent; replayed children, which ran one
// after another on a later clock, cover the sum of their durations. A
// parent whose replayed children took longer than it did has self time 0.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		covered := liveCover(s, children[s.ID])
		for _, c := range children[s.ID] {
			if c.Replay {
				covered += c.End - c.Start
			}
		}
		self[s.ID] = max(0, time.Duration(s.End-s.Start-covered))
	}
	return self
}

// stageRow is one line of the stage table: a span name over the sample.
type stageRow struct {
	Name   string  `json:"name"`
	PerReq float64 `json:"per_request"` // spans of this name per traced request
	P50US  float64 `json:"p50_us"`
	SelfUS float64 `json:"self_p50_us"`
	// Share is this stage's self time on the blocking path as a share of
	// the gateway time, summed over the sample.
	Share float64 `json:"share_of_gateway"`
}

// shardWait names the stage-table row for the part of the gateway's wait
// that no span on the blocking path explains: the shard that finished last
// was not running for all of it — on two cores the third shard's handler
// starts when one of the others is done.
const shardWait = "fleet.shard_wait"

// criticalPath returns the IDs of the spans a gateway span waited for: the
// gateway, the shard handler that finished last, and everything replayed
// under either. wait is the time the gateway's in-request children cover
// beyond that handler's own duration.
func criticalPath(gw span, children map[int][]span) (ids []int, wait time.Duration) {
	ids = []int{gw.ID}
	var slowest *span
	var walk func(id int)
	walk = func(id int) {
		for i := range children[id] {
			c := &children[id][i]
			if c.Replay {
				ids = append(ids, c.ID)
				walk(c.ID)
			}
		}
	}
	for i := range children[gw.ID] {
		c := &children[gw.ID][i]
		if !c.Replay && (slowest == nil || c.End > slowest.End) {
			slowest = c
		}
	}
	walk(gw.ID)
	if slowest != nil {
		ids = append(ids, slowest.ID)
		walk(slowest.ID)
		inside := min(slowest.End, gw.End) - max(slowest.Start, gw.Start)
		wait = time.Duration(max(0, liveCover(gw, children[gw.ID])-inside))
	}
	return ids, wait
}

// stageTable folds the spans into one row per span name and reconciles the
// stages with the gateway time: per traced request, the self times along
// the blocking path over the gateway span's duration. 1 means the stages
// account for the request exactly; the median over the sample is returned.
func stageTable(spans []span) (rows []stageRow, reconcile float64) {
	self := selfTimes(spans)
	children := make(map[int][]span)
	traces := make(map[string]bool)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
		traces[s.Trace] = true
	}
	onPath := make(map[int]bool)
	var gatewayTotal float64
	var ratios, waits []float64
	for _, s := range spans {
		if s.Name != "fleet.gateway" {
			continue
		}
		ids, wait := criticalPath(s, children)
		sum := wait
		for _, id := range ids {
			onPath[id] = true
			sum += self[id]
		}
		waits = append(waits, micros(wait))
		gatewayTotal += micros(s.dur())
		ratios = append(ratios, ratio(float64(sum), float64(s.dur())))
	}
	type acc struct {
		n          int
		dur, selfs []float64
		pathSelf   float64
	}
	byName := make(map[string]*acc)
	var names []string
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &acc{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.dur = append(a.dur, micros(s.dur()))
		a.selfs = append(a.selfs, micros(self[s.ID]))
		if onPath[s.ID] {
			a.pathSelf += micros(self[s.ID])
		}
	}
	if len(waits) > 0 {
		var total float64
		for _, w := range waits {
			total += w
		}
		byName[shardWait] = &acc{n: len(waits), dur: waits, selfs: waits, pathSelf: total}
		names = append(names, shardWait)
	}
	sort.Strings(names)
	for _, name := range names {
		a := byName[name]
		rows = append(rows, stageRow{
			Name: name, PerReq: ratio(float64(a.n), float64(len(traces))),
			P50US: median(a.dur), SelfUS: median(a.selfs),
			Share: ratio(a.pathSelf, gatewayTotal),
		})
	}
	return rows, median(ratios)
}

func printStageTable(w *strings.Builder, workload string, rows []stageRow, reconcile float64) {
	fmt.Fprintf(w, "\nstage table, %s (traced replay, one request at a time)\n", workload)
	fmt.Fprintf(w, "  %-18s %8s %12s %12s %10s\n", "span", "per req", "p50 us", "self p50 us", "of gateway")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s %8.2f %12.1f %12.1f %9.1f%%\n", r.Name, r.PerReq, r.P50US, r.SelfUS, 100*r.Share)
	}
	fmt.Fprintf(w, "  reconciliation: self times on the blocking path / fleet.gateway = %.3f (median over the sample)\n", reconcile)
}
