// Package lint implements ecolint, the repo-specific static-analysis pass.
//
// The paper's refinement phase (eqs. 4-6) is only sound when every
// Estimated Component interval keeps ordered, non-NaN bounds and every
// ranking comparison is deliberate about floating-point exactness. The
// analyzers in this package mechanically enforce those invariants — plus a
// few engineering rules (error handling, goroutine coordination, library
// output discipline) — over the whole tree, using nothing but the standard
// library's go/ast, go/parser, go/token and go/types.
//
// Each analyzer lives in its own file and registers itself in All. Findings
// can be suppressed per line with a comment of the form
//
//	//ecolint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed either on the offending line or on the line directly above it.
// The reason is mandatory by convention (ecolint does not parse it, but
// reviewers do).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named rule. Run inspects the package held by the Pass and
// reports findings through Pass.Reportf.
type Analyzer struct {
	Name string
	Run  func(*Pass)
}

// All lists every analyzer in the order they run. All are AST walkers
// over one package; baredirective polices the suppression directives
// themselves.
var All = []*Analyzer{
	IntervalLiteral,
	FloatEq,
	ErrIgnore,
	NakedGo,
	LibPrint,
	HTTPServer,
	ObsAlloc,
	CtxFlow,
	BareDirective,
}

// Package is one type-checked package ready for analysis. Only non-test
// files are loaded: tests legitimately construct invalid values, compare
// floats exactly and spawn throwaway goroutines.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	// suppressed maps file name -> line -> set of analyzer names (or "all")
	// silenced by //ecolint:ignore comments.
	suppressed map[string]map[int]map[string]bool
}

// Pass carries one (package, analyzer) pairing and collects findings.
type Pass struct {
	Pkg      *Package
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a finding at pos unless an //ecolint:ignore comment
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.isSuppressed(position, p.analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// reportAlways records a finding regardless of //ecolint:ignore
// directives. Only baredirective uses it: a bare directive must not be
// able to silence the analyzer that polices bare directives.
func (p *Pass) reportAlways(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Run applies the analyzers to the packages and returns the findings
// ordered by file, line and column.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		pkg.buildSuppressions()
		for _, a := range analyzers {
			a.Run(&Pass{Pkg: pkg, analyzer: a, diags: &diags})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// directive is one parsed //ecolint:ignore comment.
type directive struct {
	pos token.Pos
	// names is the comma-separated analyzer list (or ["all"]). Empty when
	// the directive names no analyzers at all.
	names []string
	// reason is the free text after the analyzer list. docs/lint.md makes
	// it mandatory; the baredirective analyzer enforces that.
	reason string
}

// directives parses every //ecolint:ignore comment in the package. Both
// buildSuppressions and the baredirective analyzer consume this, so the
// suppression semantics and the policing of the directives cannot drift
// apart.
func (p *Package) directives() []directive {
	var out []directive
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "ecolint:ignore") {
					continue
				}
				rest := strings.TrimPrefix(text, "ecolint:ignore")
				d := directive{pos: c.Pos()}
				if fields := strings.Fields(rest); len(fields) > 0 {
					for _, n := range strings.Split(fields[0], ",") {
						if n = strings.TrimSpace(n); n != "" {
							d.names = append(d.names, n)
						}
					}
					d.reason = strings.TrimSpace(strings.Join(fields[1:], " "))
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// buildSuppressions indexes the package's //ecolint:ignore directives. A
// directive silences the named analyzers on its own line and on the line
// directly below it, so both trailing and standalone-above placements
// work.
func (p *Package) buildSuppressions() {
	if p.suppressed != nil {
		return
	}
	p.suppressed = make(map[string]map[int]map[string]bool)
	for _, d := range p.directives() {
		if len(d.names) == 0 {
			continue
		}
		pos := p.Fset.Position(d.pos)
		byLine := p.suppressed[pos.Filename]
		if byLine == nil {
			byLine = make(map[int]map[string]bool)
			p.suppressed[pos.Filename] = byLine
		}
		for _, line := range []int{pos.Line, pos.Line + 1} {
			set := byLine[line]
			if set == nil {
				set = make(map[string]bool)
				byLine[line] = set
			}
			for _, n := range d.names {
				set[n] = true
			}
		}
	}
}

func (p *Package) isSuppressed(pos token.Position, analyzer string) bool {
	set := p.suppressed[pos.Filename][pos.Line]
	return set[analyzer] || set["all"]
}

// inIntervalPackage reports whether the package is internal/interval
// itself, the only place allowed to build raw interval.I values.
func (p *Package) inIntervalPackage() bool {
	return strings.HasSuffix(p.ImportPath, "internal/interval")
}
