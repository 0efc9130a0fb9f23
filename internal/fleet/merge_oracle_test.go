package fleet

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"ecocharge/internal/cknn"
	"ecocharge/internal/eis"
)

// The merge the gateway shipped with, kept as the oracle of selection.top:
// dedupe through a map, then one sort.Slice per chain.

func scMaxLess(a, b eis.OfferingEntry) bool {
	if a.SC.Max != b.SC.Max {
		return a.SC.Max > b.SC.Max
	}
	if a.SC.Min != b.SC.Min {
		return a.SC.Min > b.SC.Min
	}
	return a.ChargerID < b.ChargerID
}

func scMidLess(a, b eis.OfferingEntry) bool {
	am := (a.SC.Min + a.SC.Max) / 2
	bm := (b.SC.Min + b.SC.Max) / 2
	if am != bm {
		return am > bm
	}
	return scMaxLess(a, b)
}

func mergeEntriesOracle(pool []eis.OfferingEntry, k int) []eis.OfferingEntry {
	if k <= 0 || len(pool) == 0 {
		return nil
	}
	byID := make(map[int64]int, len(pool))
	deduped := pool[:0:0]
	for _, e := range pool {
		if j, dup := byID[e.ChargerID]; dup {
			if deduped[j].Degraded&uint8(cknn.DegradedShard) != 0 && e.Degraded&uint8(cknn.DegradedShard) == 0 {
				deduped[j] = e
			}
			continue
		}
		byID[e.ChargerID] = len(deduped)
		deduped = append(deduped, e)
	}
	sort.Slice(deduped, func(i, j int) bool { return scMaxLess(deduped[i], deduped[j]) })
	if k < len(deduped) {
		deduped = deduped[:k]
	}
	sort.Slice(deduped, func(i, j int) bool { return scMidLess(deduped[i], deduped[j]) })
	return deduped
}

// mergeEntries runs the production selection over one pool.
func mergeEntries(pool []eis.OfferingEntry, k int) []eis.OfferingEntry {
	var sel selection
	sel.add(pool)
	return sel.top(nil, k)
}

// mergePool is a quick.Generator of adversarial pools: few distinct charger
// IDs (duplicates), scores on a coarse grid (ties in SC_max, SC_min and the
// midpoint, including different intervals with one midpoint), point
// intervals, live and shard-degraded entries of one charger in either order
// with different scores, and a k on both sides of the pool size.
type mergePool struct {
	Entries []eis.OfferingEntry
	K       int
}

func (mergePool) Generate(rng *rand.Rand, size int) reflect.Value {
	n := rng.Intn(size + 1)
	ids := 1 + rng.Intn(n+1)
	p := mergePool{K: rng.Intn(n+3) - 1}
	for i := 0; i < n; i++ {
		lo, hi := float64(rng.Intn(5))/4, float64(rng.Intn(5))/4
		if lo > hi {
			lo, hi = hi, lo
		}
		e := eis.OfferingEntry{
			ChargerID: int64(rng.Intn(ids)),
			SC:        eis.IntervalJSON{Min: lo, Max: hi},
			RateKW:    float64(i), // tells the duplicates of one charger apart
		}
		switch rng.Intn(4) {
		case 0:
			e.Degraded = uint8(cknn.DegradedAll)
		case 1:
			e.Degraded = uint8(cknn.DegradedL) // degraded, but answered by its shard
		}
		p.Entries = append(p.Entries, e)
	}
	return reflect.ValueOf(p)
}

// TestMergeSelectionMatchesOracle: the reference-sorting selection returns
// exactly the table of the map-and-sort.Slice merge it replaced.
func TestMergeSelectionMatchesOracle(t *testing.T) {
	var sel selection // one selection across pools: reused storage must not leak between them
	var top []eis.OfferingEntry
	prop := func(p mergePool) bool {
		want := mergeEntriesOracle(p.Entries, p.K)
		sel.reset()
		half := len(p.Entries) / 2
		sel.add(p.Entries[:half]) // two lists, as two shard tables would arrive
		sel.add(p.Entries[half:])
		got := sel.top(top[:0], p.K)
		if got != nil {
			top = got
		}
		if (got == nil) != (want == nil) {
			t.Logf("k=%d over %d entries: got nil=%v, want nil=%v", p.K, len(p.Entries), got == nil, want == nil)
			return false
		}
		if len(got) == 0 && len(want) == 0 {
			return true
		}
		if !reflect.DeepEqual(got, want) {
			t.Logf("k=%d pool %+v\n got  %+v\n want %+v", p.K, p.Entries, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000, MaxCountScale: 0, Rand: rand.New(rand.NewSource(16))}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeSelectionSteadyStateAllocs: once its storage has grown, selecting
// a table allocates nothing.
func TestMergeSelectionSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(1))
	tables := make([][]eis.OfferingEntry, 3)
	for s := range tables {
		for i := 0; i < 5; i++ {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			tables[s] = append(tables[s], eis.OfferingEntry{ChargerID: int64(s*5 + i), SC: eis.IntervalJSON{Min: a, Max: b}})
		}
	}
	var sel selection
	var top []eis.OfferingEntry
	allocs := testing.AllocsPerRun(100, func() {
		sel.reset()
		for _, es := range tables {
			sel.add(es)
		}
		top = sel.top(top[:0], 3)
	})
	if allocs != 0 {
		t.Fatalf("selection allocates %.1f times per table in steady state", allocs)
	}
}
