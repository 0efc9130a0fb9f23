// The figure sweeps of §V are run by cmd/ecobench (`make figures`); the one
// benchmark here measures the continuous-query bookkeeping they share.
//
// Run with:
//
//	go test -bench=. -benchmem
package ecocharge

import (
	"testing"

	"ecocharge/internal/cknn"
	"ecocharge/internal/experiment"
)

// benchScale keeps scenario construction tractable; the ranking sees the
// full charger inventory (the paper's >1,000 per dataset), only the trip
// count is scaled.
const benchScale = 0.002

// BenchmarkSplitList covers the continuous-query bookkeeping itself.
func BenchmarkSplitList(b *testing.B) {
	sc, err := experiment.BuildScenario("Oldenburg", benchScale, 42)
	if err != nil {
		b.Fatalf("building scenario: %v", err)
	}
	m := cknn.NewEcoCharge(sc.Env, cknn.EcoChargeOptions{RadiusM: 50000, ReuseDistM: 5000})
	opts := cknn.TripOptions{K: 3, SegmentLenM: 4000, RadiusM: 50000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cknn.SplitList(sc.Env, m, sc.Trips[i%len(sc.Trips)], opts)
	}
}
