package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the rule the acceptance check applies to ten runs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 1}, 0, 6}, // two values extrapolate, as Python does
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestJudgeAppliesBoundInTheRightDirection(t *testing.T) {
	lower := metricDef{Name: "svc_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "capacity_rps", Better: "higher", Bound: 0.10}
	steady := func(x float64) []float64 { return []float64{x, x, x, x, x} }
	for _, c := range []struct {
		name      string
		d         metricDef
		base, cur []float64
		want      string
	}{
		{"lower metric rose past the bound", lower, steady(1), steady(1.11), verdictWorse},
		{"lower metric rose within the bound", lower, steady(1), steady(1.09), verdictOK},
		{"lower metric fell", lower, steady(1), steady(0.5), verdictOK},
		{"higher metric fell past the bound", higher, steady(100), steady(89), verdictWorse},
		{"higher metric fell within the bound", higher, steady(100), steady(91), verdictOK},
		{"higher metric rose", higher, steady(100), steady(150), verdictOK},
		{"spread wider than the bound", lower, []float64{0.8, 0.9, 1, 1.1, 1.2}, steady(1), verdictUnresolved},
		{"worse beats unresolved", lower, []float64{0.8, 0.9, 1, 1.1, 1.2}, steady(2), verdictWorse},
		{"one run a side has no spread", lower, []float64{1}, []float64{1.05}, verdictOK},
	} {
		if got, _, _, _ := judge(c.d, c.base, c.cur); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareRunsFlagsWorseAndNewFailures(t *testing.T) {
	mk := func(capacity float64, failed int) *result {
		m := metricSet{}
		for _, d := range endToEnd {
			m[d.Name] = 1
		}
		m["capacity_rps"] = capacity
		return &result{Workload: "hot_cells", Failed: failed, Metrics: m.values(endToEnd)}
	}
	var buf strings.Builder
	if compareRuns(&buf, []*result{mk(100, 0)}, []*result{mk(99, 0)}) {
		t.Errorf("a 1%% capacity drop was judged worse:\n%s", buf.String())
	}
	if !compareRuns(&buf, []*result{mk(100, 0)}, []*result{mk(70, 0)}) {
		t.Error("a 30% capacity drop was not judged worse")
	}
	if !compareRuns(&buf, []*result{mk(100, 0)}, []*result{mk(100, 3)}) {
		t.Error("new failed answers were not judged worse")
	}

	// sc_pct repeats exactly for a seed, so runs of the same seed are held
	// to the half point the across-seed bound cannot resolve.
	sc := func(seed int64, v float64) *result {
		r := mk(100, 0)
		r.Seed = seed
		r.Metrics["sc_pct"] = value{Value: v, Unit: "%"}
		return r
	}
	base := []*result{sc(1, 98.0), sc(2, 97.0), sc(3, 99.0)}
	if compareRuns(&buf, base, []*result{sc(3, 98.7), sc(1, 97.8), sc(2, 97.0)}) {
		t.Errorf("a 0.2-point sc_pct loss on same-seed pairs was judged worse:\n%s", buf.String())
	}
	if !compareRuns(&buf, base, []*result{sc(1, 97.3), sc(2, 96.3), sc(3, 98.3)}) {
		t.Error("a 0.7-point sc_pct loss on same-seed pairs was not judged worse")
	}
	if compareRuns(&buf, base, []*result{sc(4, 97.3), sc(5, 96.4), sc(6, 98.3)}) {
		t.Error("a 0.7-point sc_pct difference between other seeds was judged worse: only the 1 % bound applies there")
	}
}

// TestSelfTimes covers the span arithmetic: overlapping in-request children
// count once, children are clipped to the parent, replayed children count
// by duration wherever they sit on the clock, and self time never goes
// below zero.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "fleet.gateway", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "eis.handler", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "eis.handler", Start: 30, End: 70}, // overlaps 2
		{ID: 4, Parent: 1, Name: "eis.handler", Start: 75, End: 95}, // ends last
		{ID: 5, Parent: 1, Name: "eis.hop", Start: 1000, End: 1005, Replay: true},
		{ID: 6, Parent: 4, Name: "cknn.rank", Start: 2000, End: 2030, Replay: true},      // longer than its parent
		{ID: 7, Parent: 6, Name: "roadnet.expand", Start: 3000, End: 3050, Replay: true}, // and so is this
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100 - (60 + 20) - 5, // union [10,70] + [75,95], replayed 5
		2: 40,
		3: 40,
		4: 0,
		5: 5,
		6: 0,
		7: 50,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	if got := liveCover(span{Start: 0, End: 100}, []span{{Start: 90, End: 130}, {Start: 500, End: 900, Replay: true}}); got != 10 {
		t.Errorf("a child running past its parent covers %d, want 10", got)
	}

	rows, reconcile := stageTable(spans)
	// Blocking path: gateway 15 + hop 5 + the handler that ended last 0 +
	// its replays 0 + 50, plus the 60 the other handlers covered before it
	// ran: 130 of the gateway's 100, because the replays overran.
	if math.Abs(reconcile-1.30) > 1e-9 {
		t.Errorf("reconciliation = %v, want 1.30", reconcile)
	}
	names := make(map[string]float64)
	for _, r := range rows {
		names[r.Name] = r.Share
	}
	if len(rows) != 6 || math.Abs(names[shardWait]-0.60) > 1e-9 {
		t.Errorf("stage table rows %v, want one per span name plus %s at 0.60", names, shardWait)
	}
}

// TestCorrectedTimingsCancelTheHost covers the correction arithmetic: a host
// that slows both bursts of every cycle by the same factor leaves the
// corrected timings where they were, a program that gets slower on the same
// host moves them by that factor, and one disturbed cycle moves nothing.
func TestCorrectedTimingsCancelTheHost(t *testing.T) {
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	// 100 answers a burst at 1 ms each on two callers, against 50 yardstick
	// exchanges at 0.5 ms; slow stretches both, cost only the workload.
	mk := func(slow, cost float64) cycle {
		b := func(ops int, each float64) burstResult {
			r := burstResult{ops: ops, wall: ms(float64(ops) * each / 2), cpu: ms(float64(ops) * each), alloc: uint64(ops) * 2048}
			for i := 0; i < ops; i++ {
				r.lat = append(r.lat, ms(each))
			}
			return r
		}
		return cycle{work: b(100, slow*cost), yard: b(50, 0.5*slow)}
	}
	nominal := yardCost{rps: 4000, cpuMS: 0.5, p50MS: 0.5}
	run := func(cycles ...cycle) [4]float64 {
		r := closedResult{cycles: cycles}
		return [4]float64{r.capacityRPS(nominal), r.cpuMSPerOp(nominal), r.p50MS(nominal), r.allocKBPerOp()}
	}
	near := func(got, want [4]float64) bool {
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-6*want[i] {
				return false
			}
		}
		return true
	}
	quiet := run(mk(1, 1), mk(1, 1), mk(1, 1))
	if want := [4]float64{2000, 1, 1, 2}; !near(quiet, want) {
		t.Errorf("on the nominal host: %v, want %v", quiet, want)
	}
	if got := run(mk(1.7, 1), mk(2.5, 1), mk(1, 1)); !near(got, quiet) {
		t.Errorf("a host 1.7 and 2.5 times slower moved the corrected timings to %v, want %v", got, quiet)
	}
	if got, want := run(mk(1, 1.3), mk(2, 1.3), mk(1, 1.3)), [4]float64{2000 / 1.3, 1.3, 1.3, 2}; !near(got, want) {
		t.Errorf("a program 1.3 times slower: %v, want %v", got, want)
	}
	spoiled := mk(1, 1)
	spoiled.work.wall, spoiled.work.cpu = 5*spoiled.work.wall, 5*spoiled.work.cpu
	if got := run(mk(1, 1), spoiled, mk(1, 1)); !near(got, quiet) {
		t.Errorf("one spoiled burst in three moved the medians to %v, want %v", got, quiet)
	}
	slow := closedResult{cycles: []cycle{mk(2, 1)}}
	if got := slow.hostSpeed(nominal); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("host speed on a host twice as slow = %v, want 0.5", got)
	}
}

// TestYardstick checks the stand-in fleet answers in each of its shapes,
// ranks on the exchanges it should, and that its search kernel finds
// shortest paths.
func TestYardstick(t *testing.T) {
	t.Parallel()
	for _, mix := range []yardMix{{}, {searches: 2, every: 3}, {searches: 1, every: 1, jsonBodies: true}} {
		y := newYardstick(mix)
		for i := 0; i < 6; i++ {
			if !y.exchange() {
				t.Errorf("%+v: exchange %d failed", mix, i)
			}
		}
		if got := y.read(20 * time.Millisecond); got.ops < 1 || len(got.lat) != got.ops || got.wall <= 0 {
			t.Errorf("%+v: a reading of %d exchanges with %d latencies in %v", mix, got.ops, len(got.lat), got.wall)
		}
		y.close()
	}
	y := newYardstick(yardMix{})
	defer y.close()
	sc := y.scratch.Get().(*yardScratch)
	y.search(0, sc)
	far := int32(yardSide*yardSide - 1)
	// The search stops after yardSettle nodes: what it settled is a ball
	// around the source in which no edge can be relaxed further.
	settled, radius := 0, float32(0)
	for n := int32(0); n <= far; n++ {
		if sc.dist[n] < 1e30 {
			settled++
			radius = max(radius, sc.dist[n])
		}
	}
	if settled < yardSettle || settled > 2*yardSettle {
		t.Errorf("the search reached %d nodes, want about %d", settled, yardSettle)
	}
	for n := int32(0); n <= far; n++ {
		for e := y.first[n]; e < y.first[n+1]; e++ {
			// Every edge costs at least 1, so nodes nearer than radius-2
			// were settled and their edges relaxed.
			if sc.dist[n] < radius-2 && sc.dist[y.to[e]] > sc.dist[n]+y.cost[e]+1e-3 {
				t.Fatalf("edge %d->%d is not relaxed: %v > %v + %v", n, y.to[e], sc.dist[y.to[e]], sc.dist[n], y.cost[e])
			}
		}
	}
}

// TestRequestStreamsAreDeterministic checks that a seed fixes the request
// stream and the cache-fill requests byte for byte, that another seed
// changes them, and that a one-shot cache key is sent once per walk.
func TestRequestStreamsAreDeterministic(t *testing.T) {
	t.Parallel()
	sc, err := buildScenario()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		w.pool, w.rounds = 48, min(w.rounds, 2) // small: routing dominates the cost
		gen := func(seed int64) []*request {
			reqs, fill, err := generate(w, sc, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(reqs) != w.pool*w.rounds {
				t.Fatalf("%s: stream of %d requests, want %d", w.Name, len(reqs), w.pool*w.rounds)
			}
			if (w.personalEvery > 0) != (len(fill) > 0) {
				t.Fatalf("%s: %d cache-fill requests, personalEvery is %d", w.Name, len(fill), w.personalEvery)
			}
			return append(reqs, fill...)
		}
		a, b, c := gen(42), gen(42), gen(7)
		differs := false
		seen := make(map[string]bool)
		personal := 0
		for i := range a {
			if a[i].path != b[i].path || !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("%s: request %d differs between two streams of seed 42", w.Name, i)
			}
			differs = differs || !bytes.Equal(a[i].body, c[i].body)
			oneShot := a[i].personal || i >= w.pool*w.rounds
			if a[i].personal {
				personal++
			}
			if oneShot {
				if seen[string(a[i].body)] {
					t.Fatalf("%s: one-shot request %d repeats an earlier body", w.Name, i)
				}
				seen[string(a[i].body)] = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 42 and 7 generate the same stream", w.Name)
		}
		n := w.pool * w.rounds
		switch {
		case w.personalEvery == 1 && personal != n:
			t.Errorf("%s: %d of %d requests are personalised, want all", w.Name, personal, n)
		case w.personalEvery == 0 && personal != 0:
			t.Errorf("%s: %d requests are personalised, want none", w.Name, personal)
		case w.personalEvery > 1 && (personal == 0 || personal*3 > n):
			t.Errorf("%s: %d of %d requests are personalised, want about one in %d", w.Name, personal, n, w.personalEvery)
		}
	}
}

// TestOneShotKeysOutnumberTheCache holds the streams to what makes a wrap
// harmless: one walk of a workload with one-shot keys carries at least four
// times more distinct ones than a shard's response cache has entries, and
// such a workload fills the cache before it is timed. With fewer, the keys
// of the first walk are still cached on the second and a faster host
// measures a cheaper mix.
func TestOneShotKeysOutnumberTheCache(t *testing.T) {
	t.Parallel()
	sc, err := buildScenario()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if w.personalEvery == 0 {
			continue
		}
		reqs, fill, err := generate(w, sc, 42)
		if err != nil {
			t.Fatal(err)
		}
		keys := make(map[string]bool)
		for _, r := range reqs {
			if r.personal {
				keys[string(r.body)] = true
			}
		}
		if len(keys) < 4*cacheEntries {
			t.Errorf("%s: one walk has %d one-shot keys, want at least %d (4 x the %d-entry cache)", w.Name, len(keys), 4*cacheEntries, cacheEntries)
		}
		if len(fill) < 2*cacheEntries {
			t.Errorf("%s: %d cache-fill requests, want at least %d", w.Name, len(fill), 2*cacheEntries)
		}
	}
}

// TestBenchmarkJSONMatchesTheCode holds BENCHMARK.json and the tables in
// this package together: same workloads, same metrics, same units, same
// bounds.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name || decl.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the code %q", i, decl.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the code %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
	largest := 0.0
	for _, d := range endToEnd {
		largest = max(largest, d.Bound)
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Bound < largest {
		t.Errorf("setup_s must come first and carry the largest bound (%v)", largest)
	}
}

// TestSmokeRun drives one workload through a sub-second run of each kind
// and checks that every declared metric is emitted and that the counts add
// up. The traced run also holds the replay to the tables the shards served.
func TestSmokeRun(t *testing.T) {
	w, err := workloadByName("trip_plan")
	if err != nil {
		t.Fatal(err)
	}
	w.pool, w.warmN, w.sample, w.traceSample = 24, 4, 6, 3
	for _, traced := range []bool{false, true} {
		res, rec, err := runWorkload(w, 42, 1, traced)
		if err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics emitted, %d declared", traced, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			v, ok := res.Metrics[d.Name]
			if !ok || v.Unit != d.Unit {
				t.Errorf("traced=%v: metric %s missing or in unit %q, want %q", traced, d.Name, v.Unit, d.Unit)
			}
			if !traced && v.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, want a positive value", d.Name, v.Value)
			}
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
		}
		sent := 0
		for _, c := range res.Phases {
			sent += c.Sent
		}
		if sent != res.Attempted {
			t.Errorf("traced=%v: phases sent %d, attempted says %d", traced, sent, res.Attempted)
		}
		if !traced {
			continue
		}
		if rec == nil || len(res.Stages) == 0 {
			t.Fatal("traced run returned no spans or no stage table")
		}
		for _, name := range []string{"fleet.gateway_us", "eis.trip_handler_us", "cknn.trip_us", "roadnet.path_us", "wire.trip_json_bytes"} {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("traced trip_plan: %s = %v, want a positive value", name, res.Metrics[name].Value)
			}
		}
		path, err := rec.writeJSONL(t.TempDir(), w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if b, err := os.ReadFile(path); err != nil || bytes.Count(b, []byte("\n")) != len(rec.snapshot()) {
			t.Errorf("span file: %v, want one line per span", err)
		}
		var line bytes.Buffer
		if err := printResultLine(&line, res); err != nil {
			t.Fatal(err)
		}
		var parsed map[string]json.RawMessage
		if err := json.Unmarshal(line.Bytes(), &parsed); err != nil || len(parsed) != 4 {
			t.Errorf("result line has %d keys (%v), want correct, attempted, failed, metrics", len(parsed), err)
		}
	}
}
