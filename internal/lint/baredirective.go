package lint

// BareDirective polices the suppression mechanism itself: an
// //ecolint:ignore directive must name at least one analyzer and must
// carry a free-text justification after the analyzer list. docs/lint.md
// has always called the reason "mandatory by convention"; this analyzer
// makes the convention machine-checked.
//
// Findings are reported through the unsuppressable path: a directive with
// no reason must not be able to silence the analyzer that flags
// directives with no reason.
var BareDirective = &Analyzer{
	Name: "baredirective",
	Run: func(p *Pass) {
		for _, d := range p.Pkg.directives() {
			switch {
			case len(d.names) == 0:
				p.reportAlways(d.pos, "ecolint:ignore directive names no analyzers")
			case d.reason == "":
				p.reportAlways(d.pos, "ecolint:ignore %s has no justification; state why the finding is acceptable", joinNames(d.names))
			}
		}
	},
}

func joinNames(names []string) string {
	out := names[0]
	for _, n := range names[1:] {
		out += "," + n
	}
	return out
}
