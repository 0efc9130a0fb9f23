package main

import (
	"bytes"
	"context"
	"encoding/csv"
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
