package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// LibPrint reports fmt.Print*/log.Print* (and log.Fatal*/log.Panic*) calls
// inside internal/ library packages. Library code must return values or
// errors; human-readable output belongs to the cmd/ front-ends. A library
// that prints cannot be embedded in the concurrent ranking service without
// interleaving garbage on stdout, and log.Fatal kills the whole process from
// a depth where the caller could have recovered.
var LibPrint = &Analyzer{
	Name: "libprint",
	Run:  runLibPrint,
}

// libPrintFuncs maps package import path to the banned function names.
var libPrintFuncs = map[string]map[string]bool{
	"fmt": {
		"Print": true, "Printf": true, "Println": true,
	},
	"log": {
		"Print": true, "Printf": true, "Println": true,
		"Fatal": true, "Fatalf": true, "Fatalln": true,
		"Panic": true, "Panicf": true, "Panicln": true,
	},
}

func runLibPrint(pass *Pass) {
	path := pass.Pkg.ImportPath
	if !strings.Contains(path, "/internal/") {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.Pkg.Info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			banned := libPrintFuncs[pkgName.Imported().Path()]
			if banned != nil && banned[sel.Sel.Name] {
				pass.Reportf(call.Pos(),
					"%s.%s in library package %s; return values and let cmd/ do the output",
					pkgName.Imported().Path(), sel.Sel.Name, path)
			}
			return true
		})
	}
}
