package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden expect.txt files")

// golden runs one analyzer over its fixture package and compares the
// rendered diagnostics with testdata/src/<name>/expect.txt.
func TestAnalyzersGolden(t *testing.T) {
	cases := []struct {
		analyzer   *Analyzer
		importPath string
	}{
		// Import paths are chosen so the path-sensitive analyzers
		// (libprint wants internal/, intervalliteral must not be
		// internal/interval itself) see a realistic location.
		{analyzer: IntervalLiteral, importPath: "ecocharge/internal/lintfixture/intervalliteral"},
		{analyzer: FloatEq, importPath: "ecocharge/internal/lintfixture/floateq"},
		{analyzer: ErrIgnore, importPath: "ecocharge/internal/lintfixture/errignore"},
		{analyzer: NakedGo, importPath: "ecocharge/internal/lintfixture/nakedgo"},
		{analyzer: LibPrint, importPath: "ecocharge/internal/lintfixture/libprint"},
		{analyzer: HTTPServer, importPath: "ecocharge/internal/lintfixture/httpserver"},
		// obsalloc fires in internal/cknn and internal/roadnet; the fixture
		// masquerades as the former.
		{analyzer: ObsAlloc, importPath: "ecocharge/internal/lintfixture/internal/cknn"},
		{analyzer: CtxFlow, importPath: "ecocharge/internal/lintfixture/ctxflow"},
		{analyzer: BareDirective, importPath: "ecocharge/internal/lintfixture/baredirective"},
	}
	for _, tc := range cases {
		name := tc.analyzer.Name
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", name)
			pkg, err := LoadDir(dir, tc.importPath)
			if err != nil {
				t.Fatalf("LoadDir(%s): %v", dir, err)
			}
			diags := Run([]*Package{pkg}, []*Analyzer{tc.analyzer})
			if len(diags) == 0 {
				t.Fatalf("analyzer %s produced no diagnostics on its fixture; want at least one true positive", tc.analyzer.Name)
			}
			var b strings.Builder
			for _, d := range diags {
				if d.Analyzer != tc.analyzer.Name {
					t.Errorf("diagnostic attributed to %q, want %q", d.Analyzer, tc.analyzer.Name)
				}
				fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n",
					filepath.Base(d.File), d.Line, d.Col, d.Analyzer, d.Message)
			}
			got := b.String()

			golden := filepath.Join(dir, "expect.txt")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden file (run `go test ./internal/lint -update` to create it): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want (%s) ---\n%s", got, golden, want)
			}
		})
	}
}

// The fixtures bundle a //ecolint:ignore example per analyzer; this test
// pins down that the directive actually silences findings (the golden
// files would also drift, but a direct check gives a clearer failure).
func TestSuppression(t *testing.T) {
	dir := filepath.Join("testdata", "src", "floateq")
	pkg, err := LoadDir(dir, "ecocharge/internal/lintfixture/floateq")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run([]*Package{pkg}, []*Analyzer{FloatEq}) {
		line := lineOf(t, filepath.Join(dir, filepath.Base(d.File)), d.Line)
		if strings.Contains(line, "SentinelSuppressed") || strings.Contains(line, "x == 0") {
			t.Errorf("finding on suppressed line %d: %s", d.Line, d.Message)
		}
	}
}

func lineOf(t *testing.T, file string, n int) string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	if n < 1 || n > len(lines) {
		return ""
	}
	return lines[n-1]
}

// TestLoadRealPackage exercises the go-list loader against the repository
// itself: the interval package must load, type-check and come back clean.
func TestLoadRealPackage(t *testing.T) {
	pkgs, err := Load("../..", []string{"./internal/interval"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.ImportPath != "ecocharge/internal/interval" {
		t.Errorf("ImportPath = %q", pkg.ImportPath)
	}
	if len(pkg.Files) == 0 || pkg.Types == nil {
		t.Fatalf("package not fully loaded: %+v", pkg)
	}
	if diags := Run(pkgs, All); len(diags) != 0 {
		t.Errorf("internal/interval not baseline-clean: %v", diags)
	}
}
