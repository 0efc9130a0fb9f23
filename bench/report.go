package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// printResult writes the human-readable report of one run: every metric by
// name with its unit, the sample counts behind the timings, the per-phase
// accounting, and whatever the run flagged about itself.
func printResult(w *strings.Builder, res *result, defs []metricDef) {
	kind := "end-to-end, untraced"
	if res.Traced {
		kind = "per-layer, traced"
	}
	fmt.Fprintf(w, "\n%s (%s; seed %d, %d s, %d cores, %s, commit %s)\n",
		res.Workload, kind, res.Seed, res.Seconds, res.Nproc, res.GoVersion, res.Commit)
	for _, d := range defs {
		v := res.Metrics[d.Name]
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  (%s is better; regression beyond %g%%)", d.Better, 100*d.Bound)
		}
		fmt.Fprintf(w, "  %-26s %14.4f %-5s%s\n", d.Name, v.Value, v.Unit, bound)
	}
	for _, d := range perLayer {
		if v, ok := res.Ungated[d.Name]; ok {
			fmt.Fprintf(w, "  %-26s %14.4f %-5s  (not gated)\n", d.Name, v.Value, v.Unit)
		}
	}
	var names []string
	for name := range res.Samples {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprint(w, "  samples:")
	for _, name := range names {
		fmt.Fprintf(w, " %s=%d", name, res.Samples[name])
	}
	fmt.Fprintln(w)
	for _, phase := range []string{"quality", "closed", "open"} {
		c, ok := res.Phases[phase]
		if !ok {
			continue // an untraced run has no open loop
		}
		fmt.Fprintf(w, "  %-8s sent %d valid %d degraded %d shed %d invalid %d error %d %s\n",
			phase, c.Sent, c.Valid, c.Degraded, c.Shed, c.Invalid, c.Error, c.FirstViolation)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// resultLine is the last line of standard output: exactly these keys.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func printResultLine(w io.Writer, res *result) error {
	b, err := json.Marshal(resultLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeResult stores the run under dir with a name no other run has, so a
// directory accumulates a set of runs for -compare.
func writeResult(dir string, res *result) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	kind := "e2e"
	if res.Traced {
		kind = "layers"
	}
	name := fmt.Sprintf("run-%s-%s-seed%d-%d.json", res.Workload, kind, res.Seed, time.Now().UnixNano())
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// loadResults reads every untraced result in a file or directory. A file
// holds one result or an array of them.
func loadResults(path string) ([]*result, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "run-*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var out []*result
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rs []*result
		if trimmed := bytes.TrimSpace(b); len(trimmed) > 0 && trimmed[0] == '[' {
			err = json.Unmarshal(b, &rs)
		} else {
			rs = []*result{{}}
			err = json.Unmarshal(b, rs[0])
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, res := range rs {
			if !res.Traced {
				out = append(out, res)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no untraced result", path)
	}
	return out, nil
}

// verdict of one (metric, workload) pair.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies one end-to-end metric's bound to two sets of runs. The new
// median may be worse than the base median by at most Bound of the base
// median. When either set's own spread (the distance between its quartiles)
// exceeds that allowance, the runs cannot tell a regression of that size
// from noise, and the pair is unresolved rather than ok.
func judge(d metricDef, base, cur []float64) (verdict string, baseMed, curMed, spread float64) {
	baseMed, curMed = median(base), median(cur)
	allow := d.Bound * baseMed
	bq1, bq3 := quartiles(base)
	cq1, cq3 := quartiles(cur)
	spread = ratio(max(bq3-bq1, cq3-cq1), baseMed)
	worseBy := curMed - baseMed
	if d.Better == "higher" {
		worseBy = baseMed - curMed
	}
	switch {
	case worseBy > allow:
		return verdictWorse, baseMed, curMed, spread
	case spread > d.Bound:
		return verdictUnresolved, baseMed, curMed, spread
	}
	return verdictOK, baseMed, curMed, spread
}

// sameSeedChanges pairs the runs of two sets by seed and returns, per seed
// both sets ran, the change of the metric as a share of its base value.
func sameSeedChanges(d metricDef, base, cur []*result) []float64 {
	bySeed := make(map[int64]float64, len(base))
	for _, r := range base {
		bySeed[r.Seed] = r.Metrics[d.Name].Value
	}
	var changes []float64
	for _, r := range cur {
		b, ok := bySeed[r.Seed]
		if !ok {
			continue
		}
		delete(bySeed, r.Seed) // one pair a seed
		changes = append(changes, ratio(r.Metrics[d.Name].Value-b, b))
	}
	return changes
}

// compareRuns prints one row per (metric, workload), and a second row for a
// metric with a same-seed bound when the sets share seeds, and reports
// whether any pair is worse or any run on either side failed.
func compareRuns(w *strings.Builder, base, cur []*result) (worse bool) {
	group := func(rs []*result) (map[string][]*result, int) {
		g := make(map[string][]*result)
		failed := 0
		for _, r := range rs {
			g[r.Workload] = append(g[r.Workload], r)
			failed += r.Failed
		}
		return g, failed
	}
	bg, bFailed := group(base)
	cg, cFailed := group(cur)
	fmt.Fprintf(w, "%-17s %-13s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "base median", "new median", "change", "spread", "bound", "verdict")
	for _, wl := range workloads {
		b, c := bg[wl.Name], cg[wl.Name]
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		for _, d := range endToEnd {
			col := func(rs []*result) []float64 {
				v := make([]float64, len(rs))
				for i, r := range rs {
					v[i] = r.Metrics[d.Name].Value
				}
				return v
			}
			verdict, bm, cm, spread := judge(d, col(b), col(c))
			worse = worse || verdict == verdictWorse
			fmt.Fprintf(w, "%-17s %-13s %12.4f %12.4f %+7.1f%% %7.1f%% %6.1f%%  %s\n",
				wl.Name, d.Name, bm, cm, 100*ratio(cm-bm, bm), 100*spread, 100*d.Bound, verdict)
			changes := sameSeedChanges(d, b, c)
			if bound, ok := sameSeedBound[d.Name]; ok && len(changes) > 0 {
				verdict, change := verdictOK, median(changes)
				if (d.Better == "higher" && -change > bound) || (d.Better == "lower" && change > bound) {
					verdict, worse = verdictWorse, true
				}
				fmt.Fprintf(w, "%-17s %-13s %25s %+7.2f%% %8s %6.1f%%  %s\n",
					wl.Name, d.Name, fmt.Sprintf("median of %d same-seed pairs", len(changes)), 100*change, "", 100*bound, verdict)
			}
		}
		fmt.Fprintf(w, "%-17s runs: base %d, new %d\n", wl.Name, len(b), len(c))
	}
	if cFailed > bFailed {
		fmt.Fprintf(w, "failed answers rose from %d to %d: %s\n", bFailed, cFailed, verdictWorse)
		worse = true
	}
	return worse
}

// usage is the flag summary of the command.
func usage() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return "usage: bench [-workload " + strings.Join(names, "|") + "] [-seed n] [-seconds n] [-trace 0|1] [-out dir]\n" +
		"       bench -compare base new   (result files or directories of them)\n"
}
