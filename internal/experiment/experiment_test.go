package experiment

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"ecocharge/internal/obs"
)

// tinyConfig keeps unit-test runtime low; the figures themselves run at a
// larger configuration via cmd/ecobench and bench_test.go.
func tinyConfig() RunConfig {
	return RunConfig{Repetitions: 2, TripsPerRep: 3, SegmentLenM: 4000}
}

// tinyScenario builds the smallest dataset (Oldenburg) at a very small trip
// scale, reused across tests (building is the slow part).
func tinyScenario(t testing.TB) *Scenario {
	t.Helper()
	sc, err := BuildScenario("Oldenburg", 0.002, 42) // 8 trips
	if err != nil {
		t.Fatalf("BuildScenario: %v", err)
	}
	return sc
}

func TestBuildScenario(t *testing.T) {
	sc := tinyScenario(t)
	if sc.Name != "Oldenburg" {
		t.Errorf("name = %q", sc.Name)
	}
	if len(sc.Trips) != 8 {
		t.Errorf("trips = %d, want 8", len(sc.Trips))
	}
	if sc.Env.Chargers.Len() != 1000 {
		t.Errorf("chargers = %d, want 1000", sc.Env.Chargers.Len())
	}
	if _, err := BuildScenario("nope", 0.01, 1); err == nil {
		t.Error("unknown profile accepted")
	}
	if _, err := BuildScenario("Oldenburg", 0, 1); err == nil {
		t.Error("zero scale accepted")
	}
}

// work is what the engine and the road kernel did for a series, read off the
// process's counters: chargers priced (cknn_evaluated_total) and road nodes
// settled by many-target searches (roadnet_many_nodes_settled_total). The
// same series does the same work on every run.
type work struct{ evaluated, settled uint64 }

// workOf runs the series of the given factories, brute force first.
func workOf(t *testing.T, sc *Scenario, cfg RunConfig, factories ...methodFactory) work {
	t.Helper()
	evaluated := obs.Default().Counter("cknn_evaluated_total")
	settled := obs.Default().Counter("roadnet_many_nodes_settled_total")
	before := work{evaluated.Value(), settled.Value()}
	if _, err := runSeries(context.Background(), sc, cfg, factories, ""); err != nil {
		t.Fatalf("runSeries: %v", err)
	}
	return work{evaluated.Value() - before.evaluated, settled.Value() - before.settled}
}

func TestRunPerformanceShape(t *testing.T) {
	sc := tinyScenario(t)
	ms, err := RunPerformance(context.Background(), sc, tinyConfig())
	if err != nil {
		t.Fatalf("RunPerformance: %v", err)
	}
	if len(ms) != 4 {
		t.Fatalf("got %d measurements, want 4", len(ms))
	}
	byName := map[string]Measurement{}
	for _, m := range ms {
		byName[m.Method] = m
		if m.Queries == 0 {
			t.Errorf("%s measured zero queries", m.Method)
		}
	}

	bf := byName["BruteForce"]
	eco := byName["EcoCharge"]
	rnd := byName["Random"]
	qt := byName["Index-Quadtree"]

	// Brute force is the optimum by definition.
	if bf.SCPercent.Mean < 99.9 || bf.SCPercent.Mean > 100.1 {
		t.Errorf("brute force SC%% = %v, want 100", bf.SCPercent.Mean)
	}
	// Paper Fig. 6 ordering: EcoCharge near-optimal, quadtree mid, random worst.
	if eco.SCPercent.Mean < qt.SCPercent.Mean {
		t.Errorf("EcoCharge SC %.1f below quadtree %.1f", eco.SCPercent.Mean, qt.SCPercent.Mean)
	}
	if qt.SCPercent.Mean < rnd.SCPercent.Mean {
		t.Errorf("quadtree SC %.1f below random %.1f", qt.SCPercent.Mean, rnd.SCPercent.Mean)
	}
	if rnd.SCPercent.Mean > 80 {
		t.Errorf("random SC %.1f suspiciously high", rnd.SCPercent.Mean)
	}
	if eco.SCPercent.Mean < 85 {
		t.Errorf("EcoCharge SC %.1f too low", eco.SCPercent.Mean)
	}
	// Cost ordering (F_t in the paper), in work done and not in wall-clock
	// means of millisecond rankings, which move more with the host than with
	// the method: brute force prices every charger of every query, EcoCharge
	// few of them, Random none — nor does it search the network. Each method
	// runs apart, beside the same brute force, so the counters tell them apart.
	fs := allMethodFactories()
	bfWork := workOf(t, sc, tinyConfig(), fs[0])
	rndWork := workOf(t, sc, tinyConfig(), fs[0], fs[2])
	ecoWork := workOf(t, sc, tinyConfig(), fs[0], fs[3])
	if ecoOnly := ecoWork.evaluated - bfWork.evaluated; bfWork.evaluated == 0 || ecoOnly == 0 || ecoOnly >= bfWork.evaluated {
		t.Errorf("brute force priced %d chargers, EcoCharge %d", bfWork.evaluated, ecoOnly)
	}
	if rndWork != bfWork {
		t.Errorf("Random did work of its own: %+v beside brute force's %+v", rndWork, bfWork)
	}
	// EcoCharge cache must actually be exercised.
	if eco.CacheHits == 0 {
		t.Error("EcoCharge cache never hit")
	}
}

func TestRunROptMonotonicity(t *testing.T) {
	sc := tinyScenario(t)
	ms, err := RunROpt(context.Background(), sc, tinyConfig(), []float64{5, 50})
	if err != nil {
		t.Fatalf("RunROpt: %v", err)
	}
	if len(ms) != 2 {
		t.Fatalf("got %d measurements", len(ms))
	}
	small, large := ms[0], ms[1]
	if small.Config != "R=5km" || large.Config != "R=50km" {
		t.Fatalf("configs = %q, %q", small.Config, large.Config)
	}
	// Larger radius sees at least as many chargers: SC must not decrease
	// meaningfully (tolerance for sampling noise).
	if large.SCPercent.Mean < small.SCPercent.Mean-2 {
		t.Errorf("SC dropped with radius: R=5 %.1f vs R=50 %.1f",
			small.SCPercent.Mean, large.SCPercent.Mean)
	}
}

func TestRunQOptCacheTradeoff(t *testing.T) {
	sc := tinyScenario(t)
	cfg := tinyConfig()
	ms, err := RunQOpt(context.Background(), sc, cfg, []float64{2, 15})
	if err != nil {
		t.Fatalf("RunQOpt: %v", err)
	}
	if len(ms) != 2 {
		t.Fatalf("got %d measurements", len(ms))
	}
	smallQ, largeQ := ms[0], ms[1]
	// More reuse with larger Q.
	if largeQ.CacheHits <= smallQ.CacheHits {
		t.Errorf("larger Q did not increase cache hits: %d vs %d",
			largeQ.CacheHits, smallQ.CacheHits)
	}
	// Larger Q must not be more accurate.
	if largeQ.SCPercent.Mean > smallQ.SCPercent.Mean+1 {
		t.Errorf("larger Q more accurate: Q=2 %.1f vs Q=15 %.1f",
			smallQ.SCPercent.Mean, largeQ.SCPercent.Mean)
	}
}

func TestRunAblationShape(t *testing.T) {
	sc := tinyScenario(t)
	ms, err := RunAblation(context.Background(), sc, tinyConfig())
	if err != nil {
		t.Fatalf("RunAblation: %v", err)
	}
	if len(ms) != 4 {
		t.Fatalf("got %d measurements", len(ms))
	}
	byName := map[string]Measurement{}
	for _, m := range ms {
		byName[m.Method] = m
		// Shares sum to 1.
		s := m.Shares.L + m.Shares.A + m.Shares.D
		if s < 0.99 || s > 1.01 {
			t.Errorf("%s shares sum to %v", m.Method, s)
		}
	}
	awe := byName["AWE"]
	// AWE must outperform every single-objective function on the
	// equal-weight truth metric (paper: AWE outperforms all).
	for _, name := range []string{"OSC", "OA", "ODC"} {
		if byName[name].SCPercent.Mean > awe.SCPercent.Mean+1 {
			t.Errorf("%s SC %.1f above AWE %.1f", name, byName[name].SCPercent.Mean, awe.SCPercent.Mean)
		}
	}
	// Each single-objective function shifts share mass toward its target.
	if byName["OSC"].Shares.L <= awe.Shares.L {
		t.Errorf("OSC did not raise the L share: %.3f vs AWE %.3f", byName["OSC"].Shares.L, awe.Shares.L)
	}
	if byName["OA"].Shares.A <= awe.Shares.A {
		t.Errorf("OA did not raise the A share: %.3f vs AWE %.3f", byName["OA"].Shares.A, awe.Shares.A)
	}
	if byName["ODC"].Shares.D <= awe.Shares.D {
		t.Errorf("ODC did not raise the D share: %.3f vs AWE %.3f", byName["ODC"].Shares.D, awe.Shares.D)
	}
}

func TestPrintFigure(t *testing.T) {
	sc := tinyScenario(t)
	ms, err := RunPerformance(context.Background(), sc, RunConfig{Repetitions: 1, TripsPerRep: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := PrintFigure(&buf, "Fig 6 test", ms); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig 6 test", "BruteForce", "EcoCharge", "Oldenburg", "SC%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPrintAblation(t *testing.T) {
	ms := []Measurement{{Dataset: "X", Method: "AWE", Shares: ObjectiveShares{L: 0.33, A: 0.34, D: 0.33}}}
	var buf bytes.Buffer
	if err := PrintAblation(&buf, "Fig 9 test", ms); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "w1(L)%") || !strings.Contains(buf.String(), "AWE") {
		t.Errorf("ablation output malformed:\n%s", buf.String())
	}
}

func TestRunSeriesErrors(t *testing.T) {
	sc := tinyScenario(t)
	empty := *sc
	empty.Trips = nil
	if _, err := RunPerformance(context.Background(), &empty, tinyConfig()); err == nil {
		t.Error("empty trips accepted")
	}
}

func TestRunSeriesCancellation(t *testing.T) {
	sc := tinyScenario(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first cell starts
	_, err := RunPerformance(ctx, sc, tinyConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestWriteMeasurementsCSV(t *testing.T) {
	ms := []Measurement{{
		Dataset: "Oldenburg", Method: "EcoCharge", Config: "R=50km",
		Queries: 10, CacheHits: 7, CacheMiss: 3,
	}}
	var buf bytes.Buffer
	if err := WriteMeasurementsCSV(&buf, ms); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "dataset,method,config") {
		t.Errorf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "Oldenburg,EcoCharge,R=50km") {
		t.Errorf("missing row:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines != 2 {
		t.Errorf("got %d lines", lines)
	}
}
