package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ecocharge/internal/cknn"
)

func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario build is slow")
	}
	if err := run(new(bytes.Buffer), "Oldenburg", 0.0005, 1, 0, 3, 20, 5, 4, cknn.Weights{L: 1, A: 1, D: 1}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunRanksEachSegmentOnce: the split list is read off the tables the
// run printed, so the method's cache saw one lookup a segment table — a hit
// where the table was adapted, a miss where it was computed.
func TestRunRanksEachSegmentOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario build is slow")
	}
	var out bytes.Buffer
	if err := run(&out, "Oldenburg", 0.001, 42, 0, 3, 50, 5, 4, cknn.EqualWeights()); err != nil {
		t.Fatalf("run: %v", err)
	}
	tables := strings.Count(out.String(), "— Offering Table (")
	var hits, misses int
	i := strings.LastIndex(out.String(), "cache: ")
	if i < 0 {
		t.Fatalf("no cache line in:\n%s", out.String())
	}
	if _, err := fmt.Sscanf(out.String()[i:], "cache: %d hits, %d misses", &hits, &misses); err != nil {
		t.Fatal(err)
	}
	if tables == 0 || hits+misses != tables {
		t.Fatalf("%d segment tables, and the cache counted %d hits and %d misses:\n%s", tables, hits, misses, out.String())
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(new(bytes.Buffer), "NoSuchDataset", 0.001, 1, 0, 3, 50, 5, 4, cknn.EqualWeights()); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := run(new(bytes.Buffer), "Oldenburg", 0.0005, 1, 999, 3, 50, 5, 4, cknn.EqualWeights()); err == nil {
		t.Error("out-of-range trip index accepted")
	}
	if err := run(new(bytes.Buffer), "Oldenburg", 0.0005, 1, 0, 3, 50, 5, 4, cknn.Weights{L: -1}); err == nil {
		t.Error("invalid weights accepted")
	}
}
