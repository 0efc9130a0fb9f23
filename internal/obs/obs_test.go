package obs

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden exposition file")

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c_total") != c {
		t.Fatal("counter lookup is not idempotent")
	}

	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}

	// Nil registry hands out discarding handles.
	var nilReg *Registry
	nc := nilReg.Counter("x")
	nc.Inc()
	nc.Add(7)
	if nc.Value() != 0 {
		t.Fatal("nil counter retained a value")
	}
	ng := nilReg.Gauge("x")
	ng.Set(3)
	if ng.Value() != 0 {
		t.Fatal("nil gauge retained a value")
	}
	nh := nilReg.Histogram("x", nil)
	nh.Observe(1)
	nh.Since(time.Now())
	if nh.Count() != 0 || nh.Sum() != 0 {
		t.Fatal("nil histogram retained observations")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got, want := h.Sum(), 0.005+0.01+0.05+0.5+5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// Cumulative buckets: ≤0.01 holds two (0.005 and the boundary 0.01),
	// ≤0.1 adds 0.05, ≤1 adds 0.5, +Inf adds 5.
	want := []uint64{2, 3, 4, 5}
	got := h.snapshotBuckets()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cumulative buckets = %v, want %v", got, want)
		}
	}
	h.Observe(0.2)
	h.Observe(0.02)
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
}

func TestHistogramConcurrentSum(t *testing.T) {
	h := newHistogram([]float64{1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
	if got, want := h.Sum(), 4000.0; got != want {
		t.Fatalf("sum = %v, want %v (CAS loop lost updates)", got, want)
	}
}

func TestSnapshotAndDelta(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Add(3)
	r.Gauge("entries").Set(11)
	r.Histogram("lat", []float64{1}).Observe(0.5)

	before := r.Snapshot()
	if before["hits_total"] != 3 || before["entries"] != 11 ||
		before["lat_count"] != 1 || before["lat_sum"] != 0.5 {
		t.Fatalf("snapshot = %v", before)
	}
	r.Counter("hits_total").Add(2)
	r.Gauge("entries").Set(4)
	delta := DeltaSnapshot(before, r.Snapshot())
	if delta["hits_total"] != 2 {
		t.Fatalf("delta hits = %v", delta["hits_total"])
	}
	if delta["entries"] != -7 {
		t.Fatalf("delta entries = %v", delta["entries"])
	}
	if _, ok := delta["lat_count"]; ok {
		t.Fatal("unchanged metric leaked into the delta")
	}
}

// TestWriteTextGolden pins the /metrics exposition format byte-for-byte:
// the EIS serves exactly this shape and external scrapers depend on it.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("cknn_cache_hits_total").Add(42)
	r.Counter("cknn_cache_misses_total").Add(7)
	r.Gauge("eis_rescache_entries").Set(13)
	h := r.Histogram("eis_http_seconds_offering", []float64{0.001, 0.01, 0.1, 1})
	h.Observe(0.0005)
	h.Observe(0.02)
	h.Observe(0.02)
	h.Observe(3)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	got := b.String()

	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run `go test ./internal/obs -update` to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
