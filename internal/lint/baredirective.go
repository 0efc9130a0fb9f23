package lint

// BareDirective polices the suppression mechanism itself: an
// //ecolint:ignore directive must name at least one analyzer, every name
// must be a rule that exists (a directive outlives a deleted rule
// otherwise, suppressing nothing and saying it does), and it must carry a
// free-text justification after the analyzer list. docs/lint.md has always
// called the reason "mandatory by convention"; this analyzer makes the
// convention machine-checked.
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
			default:
				for _, n := range d.names {
					if !analyzerNames[n] {
						p.reportAlways(d.pos, "ecolint:ignore names %s, which is not an analyzer; delete the directive or name the rule it is for", n)
					}
				}
			}
		}
	},
}

// analyzerNames is what a directive may name: every analyzer of All, and
// "all". init fills it because All lists BareDirective: an initializer here
// would make the two variables depend on each other.
var analyzerNames = map[string]bool{"all": true}

func init() {
	for _, a := range All {
		analyzerNames[a.Name] = true
	}
}

func joinNames(names []string) string {
	out := names[0]
	for _, n := range names[1:] {
		out += "," + n
	}
	return out
}
