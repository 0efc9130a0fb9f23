package experiment

import (
	"context"
	"testing"
)

func TestRunDesignAblation(t *testing.T) {
	sc := tinyScenario(t)
	ms, err := RunDesignAblation(context.Background(), sc, tinyConfig())
	if err != nil {
		t.Fatalf("RunDesignAblation: %v", err)
	}
	byName := map[string]Measurement{}
	for _, m := range ms {
		byName[m.Method] = m
	}
	full, ok1 := byName["EcoCharge"]
	noCache, ok2 := byName["Eco-NoCache"]
	exact, ok3 := byName["Eco-ExactIntervals"]
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing variants: %v", ms)
	}
	// Disabling the cache removes hits, so every query is computed, where
	// the full method computes some and adapts the rest.
	if noCache.CacheHits != 0 {
		t.Errorf("no-cache variant still hit %d times", noCache.CacheHits)
	}
	if noCache.CacheMiss != noCache.Queries || full.CacheMiss >= noCache.CacheMiss {
		t.Errorf("no-cache computed %d of %d queries, cached %d of %d", noCache.CacheMiss, noCache.Queries, full.CacheMiss, full.Queries)
	}
	// The no-cache variant is at least as accurate (no stale adaptation).
	if noCache.SCPercent.Mean < full.SCPercent.Mean-1 {
		t.Errorf("no-cache less accurate: %.1f vs %.1f", noCache.SCPercent.Mean, full.SCPercent.Mean)
	}
	// Exact intervals search the network twice where the approximation
	// searches once: each variant run apart, beside the same brute force, so
	// that the road kernel's settle count tells them apart.
	fs := designFactories()
	approxWork := workOf(t, sc, tinyConfig(), fs[0], fs[1])
	exactWork := workOf(t, sc, tinyConfig(), fs[0], fs[3])
	if exactWork.settled <= approxWork.settled {
		t.Errorf("exact intervals settled %d road nodes, the approximation %d", exactWork.settled, approxWork.settled)
	}
	// And land close in accuracy.
	if diff := exact.SCPercent.Mean - full.SCPercent.Mean; diff > 5 || diff < -5 {
		t.Errorf("approximation costs %.1f SC points", diff)
	}
}
