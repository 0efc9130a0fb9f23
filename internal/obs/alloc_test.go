package obs

import (
	"testing"
	"time"
)

// TestMetricUpdatesZeroAlloc is the hot-path discipline gate of the
// acceptance criteria: every metric update the ranking loops and the load
// harness perform — counter, gauge and histogram, live or disabled — must
// be allocation free, proven the same way the flat kernel proves its
// steady state.
func TestMetricUpdatesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the no-race CI lane runs this")
	}
	r := NewRegistry()
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.Histogram("h_seconds")
	var nilReg *Registry
	nc := nilReg.Counter("x")
	ng := nilReg.Gauge("x")
	nh := nilReg.Histogram("x")
	start := time.Now()

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(7) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"Histogram.Observe", func() { h.Observe(1234567 * time.Nanosecond) }},
		{"Histogram.Since", func() { h.Since(start) }},
		{"nil.Counter.Inc", func() { nc.Inc() }},
		{"nil.Gauge.Set", func() { ng.Set(1) }},
		{"nil.Histogram.Observe", func() { nh.Observe(time.Millisecond) }},
		{"nil.Histogram.Since", func() { nh.Since(start) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", tc.name, allocs)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * 37 * time.Microsecond)
	}
}
