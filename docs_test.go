package ecocharge

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"unicode/utf8"
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
