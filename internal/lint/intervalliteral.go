package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// IntervalLiteral reports composite literals of interval.I built outside
// package internal/interval. Raw literals bypass the ordered-bounds /
// non-NaN checks in interval.New and interval.FromBounds; a single
// inverted interval silently corrupts the CkNN-EC filtering phase, whose
// pruning rule (optimistic SC definitely below the k-th pessimistic SC)
// assumes Min <= Max everywhere. The empty literal interval.I{} is allowed:
// the zero value is the documented exact interval [0, 0].
var IntervalLiteral = &Analyzer{
	Name: "intervalliteral",
	Run:  runIntervalLiteral,
}

func runIntervalLiteral(pass *Pass) {
	if pass.Pkg.inIntervalPackage() {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			if len(lit.Elts) == 0 {
				return true // interval.I{} is the valid zero interval [0, 0]
			}
			if isIntervalI(pass.TypeOf(lit)) {
				pass.Reportf(lit.Pos(),
					"composite literal of interval.I bypasses invariant checks; use interval.New, interval.Exact or interval.FromBounds")
			}
			return true
		})
	}
}

// isIntervalI reports whether t is the named type I from internal/interval.
func isIntervalI(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "I" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/interval")
}
