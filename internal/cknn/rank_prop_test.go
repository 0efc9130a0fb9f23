package cknn

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"ecocharge/internal/charger"
	"ecocharge/internal/interval"
)

// genEntries produces a random entry pool for quick.Check.
type genEntries []Entry

func (genEntries) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(size + 1)
	out := make(genEntries, n)
	for i := range out {
		a := r.Float64()
		b := r.Float64()
		out[i] = Entry{
			Charger: &charger.Charger{ID: int64(i + 1)},
			SC:      interval.FromBounds(a, b),
		}
	}
	return reflect.ValueOf(out)
}

// Rank output is always a subset of the input pool, of size min(k, n),
// with no duplicate chargers.
func TestPropRankSubsetAndSize(t *testing.T) {
	f := func(es genEntries, kRaw uint8) bool {
		k := int(kRaw%10) + 1
		got := Rank(nil, es, k)
		want := k
		if len(es) < k {
			want = len(es)
		}
		if len(got) != want {
			return false
		}
		in := map[int64]bool{}
		for _, e := range es {
			in[e.Charger.ID] = true
		}
		seen := map[int64]bool{}
		for _, e := range got {
			if !in[e.Charger.ID] || seen[e.Charger.ID] {
				return false
			}
			seen[e.Charger.ID] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Rank output is sorted by SC midpoint, best first.
func TestPropRankSorted(t *testing.T) {
	f := func(es genEntries, kRaw uint8) bool {
		got := Rank(nil, es, int(kRaw%10)+1)
		for i := 1; i < len(got); i++ {
			if got[i].SC.Mid() > got[i-1].SC.Mid()+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Rank is deterministic: shuffling the input never changes the output.
func TestPropRankOrderInvariant(t *testing.T) {
	f := func(es genEntries, kRaw uint8, seed int64) bool {
		k := int(kRaw%10) + 1
		a := Rank(nil, es, k)
		shuffled := append(genEntries(nil), es...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		b := Rank(nil, shuffled, k)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Charger.ID != b[i].Charger.ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// An entry that dominates every other on both bounds is always ranked
// first.
func TestPropRankDominantWins(t *testing.T) {
	f := func(es genEntries) bool {
		if len(es) == 0 {
			return true
		}
		boss := Entry{
			Charger: &charger.Charger{ID: 9999},
			SC:      interval.New(1.5, 2.0), // above any generated [0,1] interval
		}
		got := Rank(nil, append(es, boss), 3)
		return len(got) > 0 && got[0].Charger.ID == 9999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The eq. 6 intersection property: every ranked charger appears in the
// top-k of SC_max OR was padding; the chargers in both top-k sets always
// survive.
func TestPropRankIntersectionSurvives(t *testing.T) {
	f := func(es genEntries, kRaw uint8) bool {
		k := int(kRaw%5) + 1
		if len(es) == 0 {
			return true
		}
		got := Rank(nil, es, k)
		inGot := map[int64]bool{}
		for _, e := range got {
			inGot[e.Charger.ID] = true
		}
		topMax := topIDsBy(es, k, func(e Entry) float64 { return e.SC.Max })
		topMin := topIDsBy(es, k, func(e Entry) float64 { return e.SC.Min })
		for id := range topMax {
			if topMin[id] && !inGot[id] {
				return false // in both top-k sets but dropped
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func topIDsBy(es []Entry, k int, key func(Entry) float64) map[int64]bool {
	sorted := append([]Entry(nil), es...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0; j-- {
			a, b := sorted[j], sorted[j-1]
			if key(a) > key(b) || (key(a) == key(b) && a.Charger.ID < b.Charger.ID) {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			} else {
				break
			}
		}
	}
	if k > len(sorted) {
		k = len(sorted)
	}
	out := map[int64]bool{}
	for _, e := range sorted[:k] {
		out[e.Charger.ID] = true
	}
	return out
}

// rankBySort is the sort-based Rank this package shipped before the
// selection-based one, kept verbatim as its oracle: both rankings are
// materialised in full and sorted, and eq. 6 reads their heads.
func rankBySort(entries []Entry, k int) []Entry {
	if k <= 0 || len(entries) == 0 {
		return nil
	}
	byMax := append([]Entry(nil), entries...)
	sort.Slice(byMax, func(i, j int) bool { return lessEntry(&byMax[i], &byMax[j], maxKey) })
	byMin := append([]Entry(nil), entries...)
	sort.Slice(byMin, func(i, j int) bool { return lessMin(&byMin[i], &byMin[j]) })

	n := k
	if n > len(entries) {
		n = len(entries)
	}
	inMin := make(map[int64]bool, n)
	for _, e := range byMin[:n] {
		inMin[e.Charger.ID] = true
	}
	out := make([]Entry, 0, n)
	seen := make(map[int64]bool, n)
	for _, e := range byMax[:n] {
		if inMin[e.Charger.ID] {
			out = append(out, e)
			seen[e.Charger.ID] = true
		}
	}
	for _, e := range byMax {
		if len(out) >= n {
			break
		}
		if !seen[e.Charger.ID] {
			out = append(out, e)
			seen[e.Charger.ID] = true
		}
	}
	sort.Slice(out, func(i, j int) bool { return lessEntry(&out[i], &out[j], midKey) })
	return out
}

type sortKey int

const (
	maxKey sortKey = iota
	midKey
)

// lessEntry orders entries best-first under the chosen chain: the SC_max
// chain or the SC-midpoint one.
func lessEntry(a, b *Entry, key sortKey) bool {
	if key == maxKey {
		return cmpSCMax(a.SC, a.Charger.ID, b.SC, b.Charger.ID) < 0
	}
	return cmpSCMid(a.SC, a.Charger.ID, b.SC, b.Charger.ID) < 0
}

// lessMin is the SC_min chain rankBySort reads eq. 6's second ranking by:
// SC_min descending, then SC_max descending, then charger ID ascending.
func lessMin(a, b *Entry) bool {
	if a.SC.Min != b.SC.Min {
		return a.SC.Min > b.SC.Min
	}
	if a.SC.Max != b.SC.Max {
		return a.SC.Max > b.SC.Max
	}
	return a.Charger.ID < b.Charger.ID
}

// bestPerCharger keeps, in pool order, one entry per charger: its first in
// the SC_max chain (the earliest of equals). rankBySort assumes distinct
// chargers, as eq. 6 does; on a pool of them this is the identity.
func bestPerCharger(pool []Entry) []Entry {
	best := make(map[int64]int, len(pool))
	out := make([]Entry, 0, len(pool))
	for _, e := range pool {
		j, held := best[e.Charger.ID]
		switch {
		case !held:
			best[e.Charger.ID] = len(out)
			out = append(out, e)
		case lessEntry(&e, &out[j], maxKey):
			out[j] = e
		}
	}
	return out
}

// RankOracle is what Rank must return for the pool: the literal eq. 6
// ranking over one entry per charger. It is exported for FuzzRank, which
// lives in the external test package to check tables through tabletest.
func RankOracle(pool []Entry, k int) []Entry { return rankBySort(bestPerCharger(pool), k) }

// genTiedEntries produces pools built to collide: score bounds come from a
// five-value grid, so most entries tie with others on SC_max, SC_min or
// both; IDs arrive in random order; and every third pool repeats IDs (a
// repeat shares the Charger and may or may not share the score).
type genTiedEntries []Entry

func (genTiedEntries) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(size + 1)
	ids := r.Perm(n)
	if n > 0 && r.Intn(3) == 0 {
		for i := range ids {
			ids[i] = r.Intn(n/2 + 1)
		}
	}
	chargers := make(map[int]*charger.Charger)
	out := make(genTiedEntries, n)
	for i, id := range ids {
		if chargers[id] == nil {
			chargers[id] = &charger.Charger{ID: int64(id + 1)}
		}
		a, b := float64(r.Intn(5))/4, float64(r.Intn(5))/4
		out[i] = Entry{Charger: chargers[id], SC: interval.FromBounds(a, b)}
	}
	return reflect.ValueOf(out)
}

// The selection-based Rank returns exactly what sorting both rankings in
// full returns over one entry per charger, for every table size from none
// to more than the pool holds, and leaves the pool as it found it.
func TestPropRankMatchesSortOracle(t *testing.T) {
	f := func(es genTiedEntries) bool {
		pool := make([]Entry, len(es))
		copy(pool, es)
		for _, k := range []int{0, 1, 5, len(es), len(es) + 3} {
			got, want := Rank(nil, es, k), rankBySort(bestPerCharger(pool), k)
			if !reflect.DeepEqual(got, want) {
				t.Logf("k=%d pool=%d: got %v, want %v", k, len(es), OfferingTable{Entries: got}.IDs(), OfferingTable{Entries: want}.IDs())
				return false
			}
			if !reflect.DeepEqual([]Entry(es), pool) {
				t.Logf("k=%d: Rank reordered or modified its input", k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
