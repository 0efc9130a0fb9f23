// Command bench is the repository's benchmark: four fleet workloads
// measured end to end (closed and open loop) and, with -trace 1, layer by
// layer. README.md in this directory says why each workload and metric
// exists and how to read the output.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	os.Exit(run())
}

// run returns the process exit status: 0 when every answer was valid (or
// no compared metric is worse), 1 otherwise, 2 on a usage error.
func run() int {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs all four in turn")
		seed    = flag.Int64("seed", 42, "seed of the trips, per-trip weights and arrival schedules")
		seconds = flag.Int("seconds", 15, "how long the timed phases of one workload measure")
		trace   = flag.Int("trace", 0, "1 runs the traced replay and reports the per-layer metrics")
		out     = flag.String("out", "bench/out", "directory the result and trace files go to")
		compare = flag.Bool("compare", false, "compare two sets of results: -compare base new")
	)
	flag.Usage = func() { fmt.Fprint(os.Stderr, usage()); flag.PrintDefaults() }
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			flag.Usage()
			return 2
		}
		base, err := loadResults(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		cur, err := loadResults(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		var report strings.Builder
		worse := compareRuns(&report, base, cur)
		fmt.Print(report.String())
		if worse {
			return 1
		}
		return 0
	}
	if flag.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}

	ws := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		ws = []workload{w}
	}
	code := 0
	for _, w := range ws {
		res, rec, err := runWorkload(w, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			return 1
		}
		defs := endToEnd
		if res.Traced {
			defs = perLayer
		}
		var report strings.Builder
		printResult(&report, res, defs)
		if res.Traced {
			printStageTable(&report, w.Name, res.Stages, res.Metrics["trace.reconcile_ratio"].Value)
		}
		fmt.Print(report.String())
		if res.Traced {
			path, err := rec.writeJSONL(*out, w.Name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			fmt.Printf("  spans: %s\n", path)
		}
		path, err := writeResult(*out, res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("  result: %s\n", path)
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d answers were not valid, non-degraded tables\n", w.Name, res.Failed, res.Attempted)
			code = 1
		}
		// The last line of a run is its machine-readable summary.
		if err := printResultLine(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}
