package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// probeModule writes a throwaway single-file module into a temp dir so the
// CLI can be exercised end to end (go list, type-check, report) without
// touching the real tree.
func probeModule(t *testing.T, mainSrc string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module lintprobe\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(mainSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

const dirtySrc = `package main

func eq(a, b float64) bool { return a == b }

func main() { _ = eq(1, 2) }
`

const cleanSrc = `package main

func main() {}
`

func TestRunFindings(t *testing.T) {
	dir := probeModule(t, dirtySrc)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout: %s\nstderr: %s", code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "floateq") {
		t.Errorf("stdout missing floateq finding: %s", &stdout)
	}
	if !strings.Contains(stderr.String(), "1 finding(s)") {
		t.Errorf("stderr missing summary: %s", &stderr)
	}
}

func TestRunClean(t *testing.T) {
	dir := probeModule(t, cleanSrc)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr: %s", code, &stderr)
	}
	if stdout.Len() != 0 {
		t.Errorf("expected no output on clean tree, got: %s", &stdout)
	}
}

func TestRunUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit code = %d, want 2", code)
	}
	stderr.Reset()
	if code := run([]string{"-C", t.TempDir(), "./..."}, &stdout, &stderr); code != 2 {
		t.Errorf("empty dir (go list failure): exit code = %d, want 2", code)
	}
}
