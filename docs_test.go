package ecocharge

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
// of appending (ROADMAP item 11). The runs behind a performance change go to
// a file of their own under docs/perf-history/, which docs/perf.md links.
const (
	perfDocMaxLines   = 600 // docs/perf.md
	designDocMaxLines = 600 // DESIGN.md
	// CHANGES.md holds at most changesMaxBytes, and each of its lines —
	// entries and FOUND/MENDED lines alike — at most changesLineMaxChars.
	changesMaxBytes     = 40 << 10
	changesLineMaxChars = 300
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
	if len(b) > changesMaxBytes {
		t.Errorf("CHANGES.md has %d bytes, over its budget of %d", len(b), changesMaxBytes)
	}
	for i, line := range strings.Split(string(b), "\n") {
		if n := utf8.RuneCountInString(line); n > changesLineMaxChars {
			t.Errorf("CHANGES.md:%d has %d characters, over the budget of %d a line has", i+1, n, changesLineMaxChars)
		}
	}
}

// TestPerfHistoryLinks holds docs/perf.md to docs/perf-history/: every link
// into that directory resolves, and every file there is linked, so a
// recorded run is neither lost nor cited from nowhere.
func TestPerfHistoryLinks(t *testing.T) {
	doc, err := os.ReadFile("docs/perf.md")
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]bool{}
	for _, m := range regexp.MustCompile(`\]\((perf-history/[^)#]+)`).FindAllSubmatch(doc, -1) {
		target := string(m[1])
		linked[target] = true
		if _, err := os.Stat(filepath.Join("docs", target)); err != nil {
			t.Errorf("docs/perf.md links %s, which does not resolve: %v", target, err)
		}
	}
	files, err := filepath.Glob("docs/perf-history/*.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("docs/perf-history/ holds no record")
	}
	for _, f := range files {
		if target := "perf-history/" + filepath.Base(f); !linked[target] {
			t.Errorf("docs/perf.md does not link %s", target)
		}
	}
}

// TestExperimentsQuoteTheRun holds EXPERIMENTS.md's Fig. 6–9 and design
// ablation tables to docs/ecobench_output.txt, the `make figures` run they
// quote: every SC%, hits/misses and objective-share cell must read as that
// run printed it. F_t is not compared: it moves with the host, and the CI
// figures job masks it too.
func TestExperimentsQuoteTheRun(t *testing.T) {
	run := readFigureRun(t, "docs/ecobench_output.txt")
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{
		"## Figure 6": "6", "## Figure 7": "7", "## Figure 8": "8", "## Figure 9": "9",
		"## Design ablation": "design",
	}
	shownRe := regexp.MustCompile(`\((\S+) row shown`)
	checked := map[string]int{}
	var fig, shown string // the section's figure, the dataset a design table shows
	var header []string
	for i, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "## ") {
			fig, header = "", nil
			for prefix, f := range sections {
				if strings.HasPrefix(line, prefix) {
					fig = f
				}
			}
			continue
		}
		if m := shownRe.FindStringSubmatch(line); m != nil {
			shown = m[1]
		}
		if !strings.HasPrefix(line, "|") {
			header = nil
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for j := range cells {
			cells[j] = strings.TrimSpace(cells[j])
		}
		switch {
		case fig == "" || strings.HasPrefix(cells[0], "---"):
			continue
		case header == nil:
			header = cells
			continue
		}
		quote := func(key, what, got, want string) {
			checked[fig]++
			if got != want {
				t.Errorf("EXPERIMENTS.md:%d quotes %s %s as %q; docs/ecobench_output.txt has %q", i+1, key, what, got, want)
			}
		}
		row := func(key string) (figureRow, bool) {
			r, ok := run[key]
			if !ok {
				t.Errorf("EXPERIMENTS.md:%d quotes %s, which docs/ecobench_output.txt does not have", i+1, key)
			}
			return r, ok
		}
		switch {
		case fig == "6" && header[0] == "dataset":
			key := fig + "|" + cells[0] + "|" + cells[1] + "|"
			if r, ok := row(key); ok {
				quote(key, "SC%", cells[2], r.sc)
			}
		case (fig == "7" || fig == "8") && header[0] == "dataset":
			cut := strings.LastIndex(cells[0], " ")
			if cut < 0 {
				t.Errorf("EXPERIMENTS.md:%d: row %q names no dataset and metric", i+1, cells[0])
				continue
			}
			dataset, what := cells[0][:cut], cells[0][cut+1:]
			for j := 1; j < len(cells); j++ {
				key := fig + "|" + dataset + "|EcoCharge|" + header[j] + "km"
				r, ok := row(key)
				switch {
				case !ok:
				case what == "SC%":
					quote(key, what, cells[j], r.scMean())
				case what == "hits/misses":
					quote(key, what, cells[j], r.cache)
				}
			}
		case fig == "9" && header[0] == "dataset":
			key := fig + "|" + cells[0] + "|" + cells[1] + "|"
			if r, ok := row(key); ok {
				quote(key, "SC%", cells[2], r.scMean())
				for j, share := range r.shares {
					quote(key, header[3+j], cells[3+j], share)
				}
			}
		case fig == "design" && header[0] == "variant":
			variant, _, _ := strings.Cut(cells[0], " (")
			key := fig + "|" + shown + "|" + variant + "|design"
			if r, ok := row(key); ok {
				quote(key, "SC%", cells[1], r.scMean())
			}
		}
	}
	for _, f := range []string{"6", "7", "8", "9", "design"} {
		if checked[f] == 0 {
			t.Errorf("no cell of EXPERIMENTS.md's %s table was checked", f)
		}
	}
}

// figureRow is one row of an ecobench table.
type figureRow struct {
	sc     string    // "98.6 ± 0.0"
	shares [3]string // Figure 9's w1(L)%, w2(A)%, w3(D)%
	cache  string    // "835/135", or empty
}

func (r figureRow) scMean() string {
	mean, _, _ := strings.Cut(r.sc, " ")
	return mean
}

// readFigureRun reads the tables of an ecobench run, keyed by
// "figure|dataset|method|config".
func readFigureRun(t *testing.T, path string) map[string]figureRow {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	titles := map[string]string{
		"Figure 6": "6", "Figure 7": "7", "Figure 8": "8", "Figure 9": "9",
		"Design Ablation": "design",
	}
	run := map[string]figureRow{}
	fig := ""
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			fig = ""
			continue
		}
		if title, ok := titles[strings.Join(f[:min(2, len(f))], " ")]; ok {
			fig = title
			continue
		}
		// A row's SC% is the first field a "±" follows; dataset, method and
		// config (if any) come before it.
		sc := slices.Index(f, "±") - 1
		if fig == "" || sc < 2 || sc+2 >= len(f) {
			continue
		}
		r := figureRow{sc: strings.Join(f[sc:sc+3], " ")}
		if fig == "9" && sc+5 < len(f) {
			copy(r.shares[:], f[sc+3:sc+6])
		}
		if last := f[len(f)-1]; strings.Contains(last, "/") {
			r.cache = last
		}
		run[fig+"|"+f[0]+"|"+f[1]+"|"+strings.Join(f[2:sc], " ")] = r
	}
	if len(run) == 0 {
		t.Fatalf("%s holds no figure row", path)
	}
	return run
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
