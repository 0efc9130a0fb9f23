package obs

import (
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
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
	nh := nilReg.Histogram("x")
	nh.Observe(time.Second)
	nh.Since(time.Now())
	if nh.Count() != 0 || nh.Sum() != 0 {
		t.Fatal("nil histogram retained observations")
	}
}

// TestHistogramBuckets is the exposition's exactness property: random
// durations across every exposed octave and past the last, plus le edges
// and the nanosecond past each, go through WriteText, and every _bucket
// line must equal the count of samples at or below its le (a sorted-sample
// oracle), _count the number of samples and _sum their total to the
// nanosecond.
func TestHistogramBuckets(t *testing.T) {
	const prefix = `lat_seconds_bucket{le="`
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRegistry()
		h := r.Histogram("lat_seconds")
		var samples []time.Duration
		var total time.Duration
		observe := func(d time.Duration) {
			samples = append(samples, d)
			total += d
			h.Observe(d)
		}
		for k := expoMinOctave; k <= expoMaxOctave; k++ {
			if edge := time.Duration(1)<<k - 1; rng.Intn(2) == 0 {
				observe(edge)
				observe(edge + 1)
			}
		}
		for n := rng.Intn(2000); n > 0; n-- {
			if rng.Intn(50) == 0 { // past the last edge, up to an hour
				observe(time.Duration(rng.Int63n(int64(time.Hour))))
				continue
			}
			observe(time.Duration(float64(20*time.Second) * math.Pow(rng.Float64(), 6)))
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })

		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		buckets := 0
		for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
			key, val, _ := strings.Cut(line, " ")
			switch {
			case strings.HasPrefix(key, prefix):
				le := strings.TrimSuffix(strings.TrimPrefix(key, prefix), `"}`)
				want := len(samples)
				if le != "+Inf" {
					sec, err := strconv.ParseFloat(le, 64)
					if err != nil {
						t.Fatalf("le %q: %v", le, err)
					}
					edge := time.Duration(math.Round(sec * 1e9))
					want = sort.Search(len(samples), func(i int) bool { return samples[i] > edge })
				}
				if got, _ := strconv.Atoi(val); got != want {
					t.Logf("seed %d: %s = %s, want %d", seed, key, val, want)
					return false
				}
				buckets++
			case key == "lat_seconds_sum":
				sec, _ := strconv.ParseFloat(val, 64)
				if got := time.Duration(math.Round(sec * 1e9)); got != total {
					t.Logf("seed %d: _sum %s is %v, want %v", seed, val, got, total)
					return false
				}
			case key == "lat_seconds_count":
				if got, _ := strconv.Atoi(val); got != len(samples) {
					t.Logf("seed %d: _count %s, want %d", seed, val, len(samples))
					return false
				}
			}
		}
		if want := expoMaxOctave - expoMinOctave + 2; buckets != want {
			t.Logf("seed %d: %d bucket lines, want %d", seed, buckets, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrentSum(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(500 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
	if got, want := h.Sum(), 4000.0; got != want {
		t.Fatalf("sum = %v, want %v (lost updates)", got, want)
	}
}

func TestSnapshotAndDelta(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Add(3)
	r.Gauge("entries").Set(11)
	r.Histogram("lat").Observe(500 * time.Millisecond)

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
	h := r.Histogram("eis_http_seconds_offering")
	h.Observe(500 * time.Microsecond)
	h.Observe(20 * time.Millisecond)
	h.Observe(20 * time.Millisecond)
	h.Observe(3 * time.Second)

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
