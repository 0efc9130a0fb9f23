package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecocharge/internal/experiment"
)

func TestRunUnknownFigure(t *testing.T) {
	cfg := experiment.RunConfig{Repetitions: 1, TripsPerRep: 1}
	for _, fig := range []string{"42", "serve"} {
		o := runOpts{fig: fig, scale: 0.0005, seed: 1, cfg: cfg}
		err := run(context.Background(), o)
		if err == nil {
			t.Fatalf("unknown figure %q accepted", fig)
		}
		if want := "(want one of 6, 7, 8, 9, horizon, design, all)"; !strings.Contains(err.Error(), want) {
			t.Errorf("figure %q: error %q does not list %s", fig, err, want)
		}
	}
}

// TestCheckFlags holds the command to refusing counts below 1, which the
// experiment would replace by its defaults, and fault rates outside [0,1].
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		reps, trips, k int
		faultRate      float64
		want           string // "" = accepted
	}{
		{1, 1, 1, 0, ""},
		{5, 8, 3, 1, ""},
		{-3, 1, 1, 0, "-reps must be at least 1 (got -3)"},
		{1, 0, 1, 0, "-trips must be at least 1 (got 0)"},
		{1, 1, -4, 0, "-k must be at least 1 (got -4)"},
		{1, 1, 1, -0.1, "-faultrate must be in [0,1]"},
		{1, 1, 1, 1.5, "-faultrate must be in [0,1]"},
		{1, 1, 1, math.NaN(), "-faultrate must be in [0,1]"},
	} {
		cfg := experiment.RunConfig{Repetitions: tc.reps, TripsPerRep: tc.trips, K: tc.k}
		err := checkFlags(cfg, tc.faultRate)
		if tc.want == "" && err != nil {
			t.Errorf("%+v refused: %v", tc, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%+v: err = %v, want %q", tc, err, tc.want)
		}
	}
}

func TestRunFig6Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario sweep is slow")
	}
	cfg := experiment.RunConfig{Repetitions: 1, TripsPerRep: 1, SegmentLenM: 4000}
	o := runOpts{fig: "6", scale: 0.0003, seed: 1, cfg: cfg}
	if err := run(context.Background(), o); err != nil {
		t.Fatalf("run fig 6: %v", err)
	}
}

// TestRunFig6Repeatable runs the same figure twice: repetitions own their
// seeds, so everything but the clock — SC%, queries, cache hits and misses —
// must come out identical.
func TestRunFig6Repeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario build is slow")
	}
	cfg := experiment.RunConfig{Repetitions: 2, TripsPerRep: 3, SegmentLenM: 4000}
	untimed := func() [][]string {
		path := filepath.Join(t.TempDir(), "fig6.csv")
		o := runOpts{fig: "6", dataset: "Oldenburg", scale: 0.002, seed: 42, cfg: cfg, csvPath: path}
		if err := run(context.Background(), o); err != nil {
			t.Fatalf("run fig 6: %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		if len(rows) != 5 { // header + four methods
			t.Fatalf("got %d CSV rows, want 5", len(rows))
		}
		for i, row := range rows {
			// Drop ft_ms_mean and ft_ms_stddev (columns 5 and 6).
			rows[i] = append(row[:5:5], row[7:]...)
		}
		return rows
	}
	first, second := untimed(), untimed()
	for i := range first {
		if strings.Join(first[i], ",") != strings.Join(second[i], ",") {
			t.Errorf("row %d differs between runs:\n%v\n%v", i, first[i], second[i])
		}
	}
}
