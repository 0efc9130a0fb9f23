package ecocharge

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"unicode/utf8"

	_ "ecocharge/internal/cknn"
	_ "ecocharge/internal/eis"
	_ "ecocharge/internal/fleet"
	"ecocharge/internal/obs"
	_ "ecocharge/internal/roadnet"
)

// The documentation budgets. Each limit may be lowered, never raised: a
// change that adds to a budgeted document replaces superseded text instead
// of appending (ROADMAP item 11).
const (
	perfDocMaxLines   = 3059 // docs/perf.md
	designDocMaxLines = 1204 // DESIGN.md
	// Every CHANGES.md line from the entry of PR changesBudgetFromPR on —
	// entries and FOUND/MENDED lines alike — holds at most this many
	// characters.
	changesEntryMaxChars = 300
	changesBudgetFromPR  = 49
)

// TestDocBudgets holds the docs to their budgets.
func TestDocBudgets(t *testing.T) {
	for _, doc := range []struct {
		path     string
		maxLines int
	}{
		{"docs/perf.md", perfDocMaxLines},
		{"DESIGN.md", designDocMaxLines},
	} {
		b, err := os.ReadFile(doc.path)
		if err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(b, []byte("\n")); n > doc.maxLines {
			t.Errorf("%s has %d lines, over its budget of %d: replace superseded text instead of appending", doc.path, n, doc.maxLines)
		}
	}
	b, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	budgeted := false
	for i, line := range strings.Split(string(b), "\n") {
		var pr int
		if _, err := fmt.Sscanf(line, "- PR %d", &pr); err == nil && pr >= changesBudgetFromPR {
			budgeted = true
		}
		if n := utf8.RuneCountInString(line); budgeted && n > changesEntryMaxChars {
			t.Errorf("CHANGES.md:%d has %d characters, over the budget of %d an entry from PR %d on has", i+1, n, changesEntryMaxChars, changesBudgetFromPR)
		}
	}
}

// TestMetricsDoc holds docs/observability.md to the registry: every series
// the serving packages register on obs.Default() has exactly one table row,
// and every series a row names is registered. A row names its series in its
// first cell, in backquotes, and `a_{b,c}_d` stands for a_b_d and a_c_d.
func TestMetricsDoc(t *testing.T) {
	var b strings.Builder
	if err := obs.Default().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			registered[f[2]] = true
		}
	}
	if len(registered) == 0 {
		t.Fatal("nothing is registered on obs.Default()")
	}
	doc, err := os.ReadFile("docs/observability.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]int{}
	for i, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || strings.TrimSpace(cells[0]) != "" {
			continue
		}
		first := cells[1]
		for len(first) > 0 {
			open := strings.Index(first, "`")
			if open < 0 {
				break
			}
			end := strings.Index(first[open+1:], "`")
			if end < 0 {
				t.Fatalf("docs/observability.md:%d: unclosed backquote", i+1)
			}
			for _, name := range expandBraces(first[open+1 : open+1+end]) {
				rows[name] = append(rows[name], i+1)
			}
			first = first[open+end+2:]
		}
	}
	for name, lines := range rows {
		if !registered[name] {
			t.Errorf("docs/observability.md:%d names %s, which nothing registers", lines[0], name)
		}
	}
	for name := range registered {
		switch n := len(rows[name]); {
		case n == 0:
			t.Errorf("%s is registered and has no row in docs/observability.md", name)
		case n > 1:
			t.Errorf("%s has %d rows in docs/observability.md (lines %v), want one", name, n, rows[name])
		}
	}
}

// expandBraces expands the first {a,b,…} group of s, and the groups after it.
func expandBraces(s string) []string {
	open := strings.Index(s, "{")
	end := strings.Index(s, "}")
	if open < 0 || end < open {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		for _, rest := range expandBraces(s[end+1:]) {
			out = append(out, s[:open]+alt+rest)
		}
	}
	return out
}
