package main

import (
	"testing"

	"ecocharge/internal/cknn"
)

func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario build is slow")
	}
	if err := run("Oldenburg", 0.0005, 1, 0, 3, 20, 5, 4, cknn.Weights{L: 1, A: 1, D: 1}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("NoSuchDataset", 0.001, 1, 0, 3, 50, 5, 4, cknn.EqualWeights()); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := run("Oldenburg", 0.0005, 1, 999, 3, 50, 5, 4, cknn.EqualWeights()); err == nil {
		t.Error("out-of-range trip index accepted")
	}
	if err := run("Oldenburg", 0.0005, 1, 0, 3, 50, 5, 4, cknn.Weights{L: -1}); err == nil {
		t.Error("invalid weights accepted")
	}
}
