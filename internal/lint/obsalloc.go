package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ObsAlloc guards the observability discipline on the ranking hot paths
// (internal/cknn and internal/roadnet): metric handles must be registered
// once, up front, under constant names. A name built at call time — the
// typical shape is fmt.Sprintf("cknn_%s_total", kind) — means the handle is
// being looked up (or worse, created) inside the loop it instruments, which
// both allocates on a path that docs/observability.md promises is
// zero-alloc and risks unbounded metric cardinality.
//
// The rule: the name argument of Registry.Counter / Registry.Gauge /
// Registry.Histogram must be a compile-time string constant. Anything
// dynamic — Sprintf, concatenation with a variable, a plain variable — is
// flagged. Other packages (servers, benchmarks, tools) are free to build
// names dynamically and are not checked.
var ObsAlloc = &Analyzer{
	Name: "obsalloc",
	Run:  runObsAlloc,
}

func runObsAlloc(pass *Pass) {
	path := pass.Pkg.ImportPath
	if !strings.HasSuffix(path, "internal/cknn") && !strings.HasSuffix(path, "internal/roadnet") {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !isMetricConstructor(sel.Sel.Name) {
				return true
			}
			if !isRegistryReceiver(pass, sel.X) || len(call.Args) == 0 {
				return true
			}
			if !isConstantString(pass, call.Args[0]) {
				pass.Reportf(call.Args[0].Pos(),
					"metric name for %s built at call time; register handles once with constant names (dynamic names allocate on the hot path and explode cardinality)",
					sel.Sel.Name)
			}
			return true
		})
	}
}

func isMetricConstructor(name string) bool {
	return name == "Counter" || name == "Gauge" || name == "Histogram"
}

// isRegistryReceiver reports whether the expression resolves to a type
// named Registry (type information preferred, pointer receivers included;
// syntax as fallback for files that fail to type-check fully).
func isRegistryReceiver(pass *Pass, x ast.Expr) bool {
	if t := pass.TypeOf(x); t != nil {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj() != nil && named.Obj().Name() == "Registry"
		}
		return false
	}
	if id, ok := x.(*ast.Ident); ok {
		return strings.Contains(strings.ToLower(id.Name), "registry")
	}
	return false
}

// isConstantString reports whether the expression folds to a compile-time
// string constant (literals, named constants and constant concatenation all
// qualify).
func isConstantString(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok {
		_, lit := e.(*ast.BasicLit)
		return lit
	}
	return tv.Value != nil
}
