package fleet

import (
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/eis"
	"ecocharge/internal/interval"
)

// The merge the gateway shipped with, kept as the oracle of fanout.pick:
// dedupe through a map to each charger's best entry, then one sort.Slice per
// chain.

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
		j, dup := byID[e.ChargerID]
		switch {
		case !dup:
			byID[e.ChargerID] = len(deduped)
			deduped = append(deduped, e)
		case scMaxLess(e, deduped[j]):
			deduped[j] = e
		}
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
	var fo fanout
	fo.add(pool)
	return fo.pick(nil, k)
}

// mergePool is a quick.Generator of adversarial pools: few distinct charger
// IDs (duplicates), scores on a coarse grid (ties in SC_max, SC_min and the
// midpoint, including different intervals with one midpoint), point
// intervals, live and shard-degraded entries of one charger in either order
// with different scores (the best stands for its charger), and a k on both
// sides of the pool size.
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

// TestMergeSelectionMatchesOracle: the gateway's selection returns exactly
// the table of the map-and-sort.Slice merge it replaced.
func TestMergeSelectionMatchesOracle(t *testing.T) {
	var fo fanout // one fan-out across pools: reused storage must not leak between them
	var top []eis.OfferingEntry
	prop := func(p mergePool) bool {
		want := mergeEntriesOracle(p.Entries, p.K)
		fo.refs = fo.refs[:0]
		half := len(p.Entries) / 2
		fo.add(p.Entries[:half]) // two lists, as two shard tables would arrive
		fo.add(p.Entries[half:])
		got := fo.pick(top[:0], p.K)
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
	var fo fanout
	var top []eis.OfferingEntry
	allocs := testing.AllocsPerRun(100, func() {
		fo.refs = fo.refs[:0]
		for _, es := range tables {
			fo.add(es)
		}
		top = fo.pick(top[:0], 3)
	})
	if allocs != 0 {
		t.Fatalf("selection allocates %.1f times per table in steady state", allocs)
	}
}

// answeredFanout is a fan-out over the given shard tables, every shard
// answered 200.
func answeredFanout(tables ...[]eis.OfferingEntry) *fanout {
	fo := &fanout{results: make([]shardResult, len(tables)), tables: make([]eis.OfferingResponse, len(tables))}
	for i, es := range tables {
		fo.results[i] = shardResult{status: http.StatusOK}
		fo.tables[i] = eis.OfferingResponse{Entries: es}
	}
	return fo
}

// TestMergeKeepsBestEntryOfRepeatedCharger: a shard answer that lists a
// charger twice is merged with that charger's best entry, whichever comes
// first, as the shard's own ranking would keep it — in an offering and in a
// trip segment alike.
func TestMergeKeepsBestEntryOfRepeatedCharger(t *testing.T) {
	worse := eis.OfferingEntry{ChargerID: 7, SC: eis.IntervalJSON{Min: 0.1, Max: 0.2}, RateKW: 1}
	best := eis.OfferingEntry{ChargerID: 7, SC: eis.IntervalJSON{Min: 0.6, Max: 0.9}, RateKW: 2}
	other := eis.OfferingEntry{ChargerID: 8, SC: eis.IntervalJSON{Min: 0.3, Max: 0.4}}
	want := []eis.OfferingEntry{best, other}
	fo := answeredFanout([]eis.OfferingEntry{worse, best}, []eis.OfferingEntry{other})
	fo.mergeOffering(nil, 3)
	if got := fo.merged.Entries; !reflect.DeepEqual(got, want) {
		t.Errorf("offering: merged %+v, want %+v", got, want)
	}

	fo = mergeFixture(2)
	seg := &fo.trips[0].Segments[1]
	seg.Entries = []eis.OfferingEntry{worse, best}
	fo.trips[1].Segments[1].Entries = []eis.OfferingEntry{other}
	if err := fo.mergeTrips(nil, 3); err != nil {
		t.Fatal(err)
	}
	if got := fo.tripMerged.Segments[1].Entries; !reflect.DeepEqual(got, want) {
		t.Errorf("trip segment: merged %+v, want %+v", got, want)
	}
}

// TestMergeMatchesRank: over random pools split across one to four shard
// answers plus synthesized entries — scores on a coarse grid, so ties in
// every link of the chain, and few charger IDs, so a charger repeats within
// and across lists — the merged table is the one cknn.Rank makes of the same
// entries, entry for entry.
func TestMergeMatchesRank(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	nonEmpty := 0
	for trial := 0; trial < 2000; trial++ {
		ids := 1 + rng.Intn(12)
		entry := func(i int) eis.OfferingEntry {
			lo, hi := float64(rng.Intn(5))/4, float64(rng.Intn(5))/4
			if lo > hi {
				lo, hi = hi, lo
			}
			return eis.OfferingEntry{ChargerID: int64(rng.Intn(ids)), SC: eis.IntervalJSON{Min: lo, Max: hi}, RateKW: float64(i)}
		}
		var pool []eis.OfferingEntry // in the order the merge pools them
		tables := make([][]eis.OfferingEntry, 1+rng.Intn(4))
		for s := range tables {
			for n := rng.Intn(7); n > 0; n-- {
				tables[s] = append(tables[s], entry(len(pool)))
				pool = append(pool, tables[s][len(tables[s])-1])
			}
		}
		var synth []eis.OfferingEntry
		for n := rng.Intn(4); n > 0; n-- {
			e := entry(len(pool))
			e.Degraded = uint8(cknn.DegradedAll)
			synth, pool = append(synth, e), append(pool, e)
		}
		k := rng.Intn(9)

		fo := answeredFanout(tables...)
		fo.mergeOffering(synth, k)
		got := fo.merged.Entries

		// The entries as cknn.Entry stubs, as load's table check makes them.
		stubs, entries := make([]charger.Charger, len(pool)), make([]cknn.Entry, len(pool))
		at := make(map[*charger.Charger]int, len(pool))
		for i, e := range pool {
			stubs[i].ID = e.ChargerID
			entries[i] = cknn.Entry{Charger: &stubs[i], SC: interval.I(e.SC)}
			at[&stubs[i]] = i
		}
		want := cknn.Rank(nil, entries, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d (k=%d over %d entries): merged %d entries, Rank %d", trial, k, len(pool), len(got), len(want))
		}
		for j, w := range want {
			if !reflect.DeepEqual(got[j], pool[at[w.Charger]]) {
				t.Fatalf("trial %d (k=%d over %d entries): place %d holds %+v, Rank's is %+v", trial, k, len(pool), j, got[j], pool[at[w.Charger]])
			}
		}
		if len(got) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 1000 {
		t.Fatalf("only %d of 2000 merged tables had entries; the comparison is vacuous", nonEmpty)
	}
}
