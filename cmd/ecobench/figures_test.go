package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecocharge/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite the figures golden file")

// figureDatasets are the dataset profiles TestFiguresGolden runs, each at
// the bench-smoke scale; T-drive's series run in `make figures` only.
var figureDatasets = []string{"Oldenburg", "California", "Geolife"}

// TestFiguresGolden runs every figure series at the bench-smoke profile
// (`-fig all -dataset D -scale 0.0005 -reps 1 -trips 1`, for each D of
// figureDatasets) and compares every exported column but F_t — SC% and its
// σ, queries, cache hits and misses, objective shares — with
// testdata/figures.golden.csv, so a change that moves a figure number shows
// the move in its diff. `go test ./cmd/ecobench -run TestFiguresGolden
// -update` rewrites the golden.
func TestFiguresGolden(t *testing.T) {
	var b strings.Builder
	for i, dataset := range figureDatasets {
		path := filepath.Join(t.TempDir(), dataset+".csv")
		o := runOpts{
			fig: "all", dataset: dataset, scale: 0.0005, seed: 42,
			cfg:     experiment.RunConfig{Repetitions: 1, TripsPerRep: 1, K: 3},
			csvPath: path,
		}
		if err := run(context.Background(), o); err != nil {
			t.Fatalf("run %s: %v", dataset, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		if i > 0 {
			rows = rows[1:] // one header line
		}
		for _, row := range rows {
			// Drop ft_ms_mean and ft_ms_stddev (columns 5 and 6): the clock.
			b.WriteString(strings.Join(append(row[:5:5], row[7:]...), ","))
			b.WriteByte('\n')
		}
	}
	got := b.String()

	golden := filepath.Join("testdata", "figures.golden.csv")
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
		t.Fatalf("reading golden file (run `go test ./cmd/ecobench -run TestFiguresGolden -update` to create it): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d figure rows, golden has %d", len(gotLines)-2, len(wantLines)-2)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("row %d moved:\n got %s\nwant %s", i, gotLines[i], wantLines[i])
		}
	}
}
