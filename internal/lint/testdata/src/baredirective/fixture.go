// Package fixture exercises the baredirective analyzer: every
// //ecolint:ignore directive must carry a free-text justification after
// the analyzer names, or the directive itself becomes a finding.
package fixture

const eps = 1e-9

// GoodJustified carries a reason; nothing to report.
func GoodJustified(b float64) bool {
	//ecolint:ignore floateq exact sentinel comparison: zero is a literal "unset" marker
	return b == 0.0
}

// BadBare suppresses without saying why.
func BadBare(b float64) bool {
	//ecolint:ignore floateq
	return b == 0.0
}

// BadBareMulti names two analyzers and justifies neither.
func BadBareMulti(b float64) bool {
	//ecolint:ignore floateq,errignore
	return b == 0.0
}

// BadUnknownRule names a rule that was deleted; the reason does not save it.
func BadUnknownRule(b float64) bool {
	//ecolint:ignore hotalloc,floateq the first rule is gone, the directive stayed
	return b == 0.0
}
