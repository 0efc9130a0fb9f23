package lint

import (
	"go/ast"
	"go/types"
)

// HTTPServer reports HTTP servers started without read timeouts. Two shapes
// are flagged:
//
//   - an http.Server composite literal that sets neither ReadHeaderTimeout
//     nor ReadTimeout: such a server waits forever for request headers, so
//     one slow client per connection slot is a denial of service
//     (slowloris);
//   - calls to the package-level http.ListenAndServe / ListenAndServeTLS,
//     which construct exactly that timeout-less server internally and offer
//     no way to fix it. The (*http.Server).ListenAndServe method is fine —
//     the literal it is called on is where the first rule applies.
//
// A deliberate exception (a localhost-only debug listener, say) should be
// suppressed with //ecolint:ignore httpserver and a reason.
var HTTPServer = &Analyzer{
	Name: "httpserver",
	Run:  runHTTPServer,
}

func runHTTPServer(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				checkServerLiteral(pass, n)
			case *ast.CallExpr:
				checkListenAndServeCall(pass, n)
			}
			return true
		})
	}
}

// checkServerLiteral flags http.Server{...} literals that configure no read
// timeout at all.
func checkServerLiteral(pass *Pass, lit *ast.CompositeLit) {
	if !isNamedType(pass.TypeOf(lit), "net/http", "Server") {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		if key.Name == "ReadHeaderTimeout" || key.Name == "ReadTimeout" {
			return
		}
	}
	pass.Reportf(lit.Pos(), "http.Server without ReadHeaderTimeout or ReadTimeout: slow clients can hold connections forever (slowloris)")
}

// checkListenAndServeCall flags the package-level http.ListenAndServe and
// http.ListenAndServeTLS functions (not the methods on *http.Server).
func checkListenAndServeCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	obj := pass.Pkg.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "net/http" {
		return
	}
	if fn.Name() != "ListenAndServe" && fn.Name() != "ListenAndServeTLS" {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // the method on a configured *http.Server is fine
	}
	pass.Reportf(call.Pos(), "http.%s starts a server with no timeouts; build an http.Server with ReadHeaderTimeout instead", fn.Name())
}

// isNamedType reports whether t (or its pointee) is the named type
// pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
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
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
