package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NakedGo reports `go` statements with no visible coordination: the spawned
// function neither touches a channel, nor calls into sync (WaitGroup,
// Mutex, Once, ...), nor receives a context.Context or channel through its
// arguments. Such goroutines have unmanaged lifetimes — in a long-running
// ranking service they leak, and in tests they race with cleanup. The check
// is a heuristic over what is syntactically in scope:
//
//   - for `go func() {...}()` the body is searched for channel operations
//     (send, receive, close, select, range-over-channel), calls on sync
//     types and context use;
//   - for any call form, arguments of channel, sync or context type count
//     as coordination.
//
// Coordinated-by-construction goroutines that the heuristic cannot see
// (e.g. a method that blocks on an internal channel) should be suppressed
// with //ecolint:ignore nakedgo and a reason.
var NakedGo = &Analyzer{
	Name: "nakedgo",
	Run:  runNakedGo,
}

func runNakedGo(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if goStmtCoordinated(pass, g) {
				return true
			}
			pass.Reportf(g.Pos(), "naked goroutine: no WaitGroup, channel or context coordination in scope; its lifetime is unmanaged")
			return true
		})
	}
}

func goStmtCoordinated(pass *Pass, g *ast.GoStmt) bool {
	for _, arg := range g.Call.Args {
		if isCoordinationType(pass.TypeOf(arg)) {
			return true
		}
	}
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		return bodyCoordinated(pass, lit.Body)
	}
	return false
}

// bodyCoordinated searches a function-literal body for evidence of
// coordination. Nested function literals are included: a goroutine whose
// deferred cleanup signals a channel is coordinated.
func bodyCoordinated(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					found = true
				}
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if recv := pass.TypeOf(sel.X); typeFromPackage(recv, "sync") {
					found = true
				}
			}
		case *ast.Ident:
			if isCoordinationType(pass.TypeOf(n)) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isCoordinationType reports whether t is a channel, a sync type (or
// pointer to one) or a context.Context.
func isCoordinationType(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	if typeFromPackage(t, "sync") || typeFromPackage(t, "context") {
		return true
	}
	return false
}

// typeFromPackage reports whether t (or its pointee) is a named type
// declared in the package with the given import path.
func typeFromPackage(t types.Type, path string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == path
}
