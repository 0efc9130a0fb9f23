package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq reports == and != between floating-point expressions.
// Sustainability scores are estimates: comparing them for exact equality
// is almost always a bug — use an epsilon tolerance, interval dominance
// (DefinitelyLess / Dominates) or the interval helpers instead. When exact
// comparison is genuinely intended (sentinel checks, deterministic sort
// tie-breaks), suppress the finding with
//
//	//ecolint:ignore floateq <reason>
//
// Comparisons where both operands are compile-time constants are exempt:
// they are evaluated exactly by the compiler.
var FloatEq = &Analyzer{
	Name: "floateq",
	Run:  runFloatEq,
}

func runFloatEq(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass.TypeOf(bin.X)) && !isFloat(pass.TypeOf(bin.Y)) {
				return true
			}
			if isConstant(pass, bin.X) && isConstant(pass, bin.Y) {
				return true
			}
			pass.Reportf(bin.OpPos,
				"floating-point %s comparison; use a tolerance or interval dominance (or //ecolint:ignore floateq with a reason)",
				bin.Op)
			return true
		})
	}
}

// isFloat reports whether t's underlying type is a floating-point kind.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch basic.Kind() {
	case types.Float32, types.Float64, types.UntypedFloat:
		return true
	}
	return false
}

func isConstant(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	return ok && tv.Value != nil
}
