package lint

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// loadTree loads the whole repository exactly once and shares the result
// across the determinism, budget and benchmark tests below.
var loadTree = sync.OnceValues(func() ([]*Package, error) {
	return Load("../..", []string{"./..."})
})

// render flattens diagnostics the same way cmd/ecolint prints them.
func render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRunDeterministic pins down that two full runs over the repository
// produce byte-identical output: stable ordering is what lets CI diff
// ecolint output across commits and lets the goldens exist at all.
func TestRunDeterministic(t *testing.T) {
	pkgs, err := loadTree()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	first := render(Run(pkgs, All))
	second := render(Run(pkgs, All))
	if first != second {
		t.Errorf("two runs differ\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// TestEcolintRuntimeBudget keeps the lint gate cheap enough to run on
// every push: a full analysis pass over the loaded tree must finish well
// under the budget. The bound is deliberately generous — it exists to
// catch an analyzer that goes quadratic in the size of the tree, not to
// benchmark.
func TestEcolintRuntimeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping runtime budget in -short mode")
	}
	pkgs, err := loadTree()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	const budget = 30 * time.Second
	start := time.Now()
	Run(pkgs, All)
	if elapsed := time.Since(start); elapsed > budget {
		t.Errorf("full ecolint pass took %v, budget is %v", elapsed, budget)
	}
}

// BenchmarkEcolint measures a full analysis pass (all analyzers, whole
// repository, loading excluded) so a slower analyzer shows up in bench
// diffs.
func BenchmarkEcolint(b *testing.B) {
	pkgs, err := loadTree()
	if err != nil {
		b.Fatalf("Load: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(pkgs, All)
	}
}
