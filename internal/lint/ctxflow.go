package lint

// CtxFlow enforces context propagation, the cancellation half of the
// serving story: a function that accepts a context.Context (or an
// *http.Request, which carries one) must not make blocking calls that
// ignore it — time.Sleep instead of a ctx-aware timer wait, or the
// context-less net/http entry points (http.Get, http.Post,
// http.NewRequest, ...) instead of their WithContext forms.

import (
	"go/ast"
	"go/types"
)

var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Run:  runCtxFlow,
}

func runCtxFlow(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil && hasCtxParam(p, fn.Type) {
					checkBlockingCalls(p, fn.Body)
				}
			case *ast.FuncLit:
				if hasCtxParam(p, fn.Type) {
					checkBlockingCalls(p, fn.Body)
				}
			}
			return true
		})
	}
}

// hasCtxParam reports whether the function declares a context.Context or
// *http.Request parameter.
func hasCtxParam(p *Pass, ft *ast.FuncType) bool {
	for _, field := range ft.Params.List {
		t := p.TypeOf(field.Type)
		if isContextType(t) || isHTTPRequestPtr(t) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func isHTTPRequestPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Request"
}

// checkBlockingCalls flags ctx-ignoring blocking calls in the body of a
// function that has a context available. Nested function literals are
// skipped: each is visited as its own unit, and one without a ctx
// parameter cannot thread what it does not have.
//
// Detection is reference-based, not call-based: `sleep := time.Sleep`
// followed by `sleep(d)` ignores the context just as thoroughly as a
// direct call, so any mention of time.Sleep (or a context-less net/http
// entry point) in a ctx-bearing function is a finding.
func checkBlockingCalls(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		name, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := p.Pkg.Info.Uses[name].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return true // methods like http.Header.Get are not entry points
		}
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Sleep" {
				p.Reportf(name.Pos(), "time.Sleep in a function that has a context; use a timer with select on ctx.Done() so the wait is cancellable")
			}
		case "net/http":
			switch fn.Name() {
			case "Get", "Post", "Head", "PostForm":
				p.Reportf(name.Pos(), "http.%s ignores the function's context; build the request with http.NewRequestWithContext", fn.Name())
			case "NewRequest":
				p.Reportf(name.Pos(), "http.NewRequest drops the function's context; use http.NewRequestWithContext")
			}
		}
		return true
	})
}
