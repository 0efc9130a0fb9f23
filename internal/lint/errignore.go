package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// ErrIgnore reports calls whose error result is silently discarded: an
// expression statement calling a function that returns an error drops the
// error on the floor. An explicit `_ = f()` assignment is accepted as a
// deliberate acknowledgement, as are `defer` and `go` statements (closing
// resources on the way out is idiomatic). Packages under examples/ are
// exempt — they optimise for brevity.
//
// Following errcheck convention, a few writes whose errors are
// unactionable are also exempt: fmt.Print/Printf/Println (process stdout),
// fmt.Fprint* aimed at os.Stdout or os.Stderr, and fmt.Fprint* into a
// *bytes.Buffer or *strings.Builder (whose Write never fails).
var ErrIgnore = &Analyzer{
	Name: "errignore",
	Run:  runErrIgnore,
}

func runErrIgnore(pass *Pass) {
	if strings.Contains(pass.Pkg.ImportPath, "/examples/") {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if returnsError(pass, call) && !isExemptPrint(pass, call) {
				pass.Reportf(call.Pos(), "result of %s contains an error that is discarded; handle it or assign to _ explicitly",
					exprString(pass.Pkg.Fset, call.Fun))
			}
			return true
		})
	}
}

// returnsError reports whether the call's result type is or contains error.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	t := pass.TypeOf(call)
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

// isExemptPrint reports whether call is one of the conventional
// can't-act-on-the-error print forms documented on ErrIgnore.
func isExemptPrint(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := pass.Pkg.Info.Uses[id].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "fmt" {
		return false
	}
	switch sel.Sel.Name {
	case "Print", "Printf", "Println":
		return true
	case "Fprint", "Fprintf", "Fprintln":
		if len(call.Args) == 0 {
			return false
		}
		return isStdStream(pass, call.Args[0]) || isInfallibleWriter(pass.TypeOf(call.Args[0]))
	}
	return false
}

// isStdStream reports whether e is literally os.Stdout or os.Stderr.
func isStdStream(pass *Pass, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pkgName, ok := pass.Pkg.Info.Uses[id].(*types.PkgName)
	return ok && pkgName.Imported().Path() == "os" &&
		(sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr")
}

// isInfallibleWriter reports whether t is *bytes.Buffer or
// *strings.Builder, whose Write methods are documented never to fail.
func isInfallibleWriter(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path, name := obj.Pkg().Path(), obj.Name()
	return (path == "bytes" && name == "Buffer") || (path == "strings" && name == "Builder")
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }

// exprString renders a short source form of e for diagnostics.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "call"
	}
	return buf.String()
}
