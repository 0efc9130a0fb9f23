// Command ecolint runs the repo-specific static-analysis pass over the
// given package patterns (default ./...). It is built purely on the
// standard library's go/ast, go/parser, go/token and go/types; the go
// command is invoked only for package metadata and export data.
//
// Usage:
//
//	ecolint [-C dir] [packages]
//
// Exit status: 0 when the tree is clean, 1 when findings were reported,
// 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ecocharge/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ecolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chdir := fs.String("C", ".", "directory to run in")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*chdir, patterns)
	if err != nil {
		outln(stderr, "ecolint:", err)
		return 2
	}

	diags := lint.Run(pkgs, lint.All)
	for _, d := range diags {
		outln(stdout, d)
	}
	if len(diags) > 0 {
		outf(stderr, "ecolint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// outf and outln write CLI output; errors writing to the process streams
// are unactionable, so they are deliberately dropped here and nowhere else.
func outf(w io.Writer, format string, args ...any) { _, _ = fmt.Fprintf(w, format, args...) }

func outln(w io.Writer, args ...any) { _, _ = fmt.Fprintln(w, args...) }
