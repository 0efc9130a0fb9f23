package cknn

// BenchmarkObsOverhead prices the observability layer against the disabled
// path on the full EcoCharge method: the "instrumented" sub-benchmark runs
// with live handles on the default registry, "noop" swaps the package's
// metric set for nil-registry handles (every update discards). The two must
// stay within noise of each other — make bench-smoke runs this pair.

import (
	"testing"

	"ecocharge/internal/obs"
)

func BenchmarkObsOverhead(b *testing.B) {
	env := testEnv(b)
	q := testQuery(env)
	modes := []struct {
		name string
		m    *engineMetrics
	}{
		{"instrumented", newEngineMetrics(obs.Default())},
		{"noop", newEngineMetrics(nil)},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			old := met
			met = mode.m
			defer func() { met = old }()
			m := NewEcoCharge(env, EcoChargeOptions{RadiusM: q.RadiusM})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset() // force the compute path: the full filtering phase
				table := m.Rank(q)
				if len(table.Entries) == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// TestEngineMetricUpdatesZeroAlloc proves the instrumentation calls on the
// ranking hot path allocate nothing, live and disabled alike.
func TestEngineMetricUpdatesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counting is unreliable under the race detector")
	}
	for _, m := range []*engineMetrics{newEngineMetrics(obs.Default()), newEngineMetrics(nil)} {
		old := met
		met = m
		if got := testing.AllocsPerRun(200, func() {
			met.pruneRejected.Inc()
			met.evaluated.Inc()
			countDegraded(DegradedL | DegradedD)
		}); got != 0 {
			met = old
			t.Fatalf("metric updates allocate %v per run, want 0", got)
		}
		met = old
	}
}
