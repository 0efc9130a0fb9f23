package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ecocharge/internal/charger"
)

func TestDatagenWritesAllFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario build is slow")
	}
	dir := t.TempDir()
	if err := run("Oldenburg", 0.0005, 1, dir, 1); err != nil {
		t.Fatalf("run: %v", err)
	}
	// Chargers round-trip through the CSV codec.
	f, err := os.Open(filepath.Join(dir, "chargers.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cs, err := charger.ReadCSV(f)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(cs) != 1000 {
		t.Errorf("chargers.csv has %d rows, want 1000", len(cs))
	}
	// Trips file is non-trivial.
	trips, err := os.ReadFile(filepath.Join(dir, "trips.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(trips), "\n")
	if lines < 2 {
		t.Errorf("trips.csv has %d lines", lines)
	}
	// Production series: 96 samples/day per charger with panels.
	prod, err := os.ReadFile(filepath.Join(dir, "production.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(prod), "\n") < 96 {
		t.Error("production.csv too short")
	}
}

func TestDatagenBadDataset(t *testing.T) {
	if err := run("nope", 0.001, 1, t.TempDir(), 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}
