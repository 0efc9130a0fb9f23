// Package tabletest checks the structural invariants every Offering Table
// must satisfy, regardless of which ranking method produced it or how
// degraded its EC sources were. The differential, chaos and property suites
// all assert through this one helper so "valid table" means the same thing
// everywhere:
//
//   - at most k entries, each with a charger, no charger offered twice;
//   - SC is a well-formed interval inside [0,1] (SC_min ≤ SC_max), and each
//     normalized component L/A/D is inside [0,1];
//   - a set Degraded bit carries the ignorance bound [0,1] on its component
//     — degradation widens intervals, it never invents information;
//   - the shard-degraded bit (an unreachable fleet partition) implies all
//     three component bits: a shard outage takes every source with it, so a
//     shard-tagged entry is fully widened;
//   - entries are totally ordered best-first by SC midpoint with the
//     documented tie-break chain (SC_max desc, SC_min desc, charger ID asc),
//     which reads only the score interval — the Degraded bitmask can never
//     alter the ordering inputs.
package tabletest

import (
	"fmt"
	"testing"

	"ecocharge/internal/cknn"
)

// eps absorbs the float rounding of the weighted interval sum; invariants
// are semantic bounds, not bit patterns.
const eps = 1e-9

// Options tune which invariants apply.
type Options struct {
	// SkipScores disables the SC/component/order checks for methods that
	// never compute scores (the Random baseline fills entries with zero
	// values). Structural checks (size, duplicates, nil chargers) remain.
	// A test seam, like the package: the cknn chaos and batched-derouting
	// table tests set it for the Random method.
	SkipScores bool
}

// Check fails the test when the table violates any invariant. The label
// names the producing method/trip in failure messages.
func Check(t testing.TB, table cknn.OfferingTable, k int, label string) {
	t.Helper()
	CheckOpts(t, table, k, label, Options{})
}

// CheckOpts is Check with explicit options.
func CheckOpts(t testing.TB, table cknn.OfferingTable, k int, label string, opts Options) {
	t.Helper()
	if err := Err(table, k, opts); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// Err reports the first violated invariant, or nil. It is the non-fatal
// core of Check so property-based tests can feed it to testing/quick.
func Err(table cknn.OfferingTable, k int, opts Options) error {
	if k >= 0 && len(table.Entries) > k {
		return fmt.Errorf("table holds %d entries, want at most %d", len(table.Entries), k)
	}
	seen := make(map[int64]bool, len(table.Entries))
	for i, e := range table.Entries {
		if e.Charger == nil {
			return fmt.Errorf("entry %d has no charger", i)
		}
		if seen[e.Charger.ID] {
			return fmt.Errorf("charger %d offered twice", e.Charger.ID)
		}
		seen[e.Charger.ID] = true
		if opts.SkipScores {
			continue
		}
		if err := checkScores(e, i); err != nil {
			return err
		}
		if i > 0 {
			if err := checkOrder(table.Entries[i-1], e, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkScores bounds the score interval and the normalized components, and
// enforces the degradation contract per component.
func checkScores(e cknn.Entry, i int) error {
	if !(e.SC.Min <= e.SC.Max) || e.SC.Min < -eps || e.SC.Max > 1+eps {
		return fmt.Errorf("entry %d (charger %d): SC [%v,%v] outside [0,1]",
			i, e.Charger.ID, e.SC.Min, e.SC.Max)
	}
	if e.Comp.Degraded&cknn.DegradedShard != 0 && e.Comp.Degraded != cknn.DegradedAll {
		return fmt.Errorf("entry %d (charger %d): shard-degraded mask %q is not fully widened",
			i, e.Charger.ID, e.Comp.Degraded)
	}
	comps := [...]struct {
		name     string
		min, max float64
		deg      bool
	}{
		{"L", e.Comp.L.Min, e.Comp.L.Max, e.Comp.Degraded.Has(cknn.CompL)},
		{"A", e.Comp.A.Min, e.Comp.A.Max, e.Comp.Degraded.Has(cknn.CompA)},
		{"D", e.Comp.D.Min, e.Comp.D.Max, e.Comp.Degraded.Has(cknn.CompD)},
	}
	for _, c := range comps {
		if !(c.min <= c.max) || c.min < -eps || c.max > 1+eps {
			return fmt.Errorf("entry %d (charger %d): component %s [%v,%v] outside [0,1]",
				i, e.Charger.ID, c.name, c.min, c.max)
		}
		//ecolint:ignore floateq the ignorance bound is the literal interval [0,1], not a computed value
		if c.deg && (c.min != 0 || c.max != 1) {
			return fmt.Errorf("entry %d (charger %d): degraded %s is [%v,%v], want the ignorance bound [0,1]",
				i, e.Charger.ID, c.name, c.min, c.max)
		}
	}
	return nil
}

// checkOrder enforces the best-first total order between adjacent entries:
// SC midpoint descending, ties by SC_max descending, then SC_min
// descending, then charger ID ascending. Only score-interval fields are
// read, so any influence of the Degraded bitmask on emitted order would
// surface as a violation here.
func checkOrder(prev, cur cknn.Entry, i int) error {
	pm, cm := prev.SC.Mid(), cur.SC.Mid()
	if pm < cm {
		return fmt.Errorf("entries %d/%d out of order: SC mid %v < %v", i-1, i, pm, cm)
	}
	//ecolint:ignore floateq total-order tie-break needs exact comparison, as in the sort comparator
	if pm != cm {
		return nil
	}
	switch {
	//ecolint:ignore floateq total-order tie-break needs exact comparison, as in the sort comparator
	case prev.SC.Max != cur.SC.Max:
		if prev.SC.Max < cur.SC.Max {
			return fmt.Errorf("tie at entry %d broken against SC_max order", i)
		}
	//ecolint:ignore floateq total-order tie-break needs exact comparison, as in the sort comparator
	case prev.SC.Min != cur.SC.Min:
		if prev.SC.Min < cur.SC.Min {
			return fmt.Errorf("tie at entry %d broken against SC_min order", i)
		}
	case prev.Charger.ID >= cur.Charger.ID:
		return fmt.Errorf("full tie at entry %d not in charger-ID order", i)
	}
	return nil
}
