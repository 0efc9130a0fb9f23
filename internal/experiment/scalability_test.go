package experiment

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"ecocharge/internal/obs"
)

// The two inventories run separately and are compared on how many chargers
// the engine priced for each (cknn_evaluated_total over all four methods;
// brute force prices every one): a count, where a single-shot wall-clock mean
// of a 2 ms ranking moves more with the host than with |B|.
func TestRunChargerScalability(t *testing.T) {
	sc := tinyScenario(t)
	cfg := RunConfig{Repetitions: 1, TripsPerRep: 2, SegmentLenM: 4000}
	evaluated := obs.Default().Counter("cknn_evaluated_total")
	priced := make(map[int]uint64)
	for _, n := range []int{100, 400} {
		before := evaluated.Value()
		ms, err := RunChargerScalability(context.Background(), sc, cfg, []int{n})
		if err != nil {
			t.Fatalf("RunChargerScalability(%d): %v", n, err)
		}
		if len(ms) != 4 { // one count × 4 methods
			t.Fatalf("|B|=%d: got %d measurements", n, len(ms))
		}
		priced[n] = evaluated.Value() - before
	}
	if priced[100] == 0 || priced[400] <= priced[100] {
		t.Errorf("work did not grow with |B|: %d chargers priced at 100, %d at 400", priced[100], priced[400])
	}
}

func TestRunKSweep(t *testing.T) {
	sc := tinyScenario(t)
	cfg := RunConfig{Repetitions: 1, TripsPerRep: 2, SegmentLenM: 4000}
	ms, err := RunKSweep(context.Background(), sc, cfg, []int{1, 5})
	if err != nil {
		t.Fatalf("RunKSweep: %v", err)
	}
	if len(ms) != 2 {
		t.Fatalf("got %d measurements", len(ms))
	}
	for _, m := range ms {
		if m.Method != "EcoCharge" {
			t.Errorf("unexpected method %s", m.Method)
		}
		if m.SCPercent.Mean <= 0 {
			t.Errorf("%s: zero SC", m.Config)
		}
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
