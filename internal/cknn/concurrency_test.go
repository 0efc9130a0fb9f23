package cknn

// Concurrency suite. A ranking runs on one goroutine and concurrency lives
// between requests, so what is pinned here is what requests share: the Env,
// the entry, candidate and search-state pools under every ranking, and the
// two stateless methods. Run with -race; the CI test job does.

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"ecocharge/internal/geo"
	"ecocharge/internal/trajectory"
)

// TestSharedCacheTripCoherence is the property serving relies on: k trips
// running concurrently over one shared Env, each with its own EcoCharge (as
// every /offering/trip request has), must each produce exactly what a fresh
// run of that trip alone produces — a trip adapts only its own tables, and
// the pooled scratch the rankings share carries nothing from one to another.
func TestSharedCacheTripCoherence(t *testing.T) {
	env := testEnv(t)
	opts := EcoChargeOptions{RadiusM: 10000, ReuseDistM: 3000}
	tripOpts := TripOptions{K: 3, SegmentLenM: 3000, RadiusM: 10000}
	property := func(s uint8) bool {
		trips, err := trajectory.Generate(env.Graph, trajectory.GenConfig{
			N: 3, Seed: int64(s) + 1, MinTripKM: 5, MaxTripKM: 10,
			Start: queryTime, Window: time.Hour,
		})
		if err != nil || len(trips) == 0 {
			return false
		}
		got := make([][]SegmentResult, len(trips))
		var wg sync.WaitGroup
		for i := range trips {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = RunTrip(env, NewEcoCharge(env, opts), trips[i], tripOpts)
			}(i)
		}
		wg.Wait()
		for i := range trips {
			want := RunTrip(env, NewEcoCharge(env, opts), trips[i], tripOpts)
			if !reflect.DeepEqual(want, got[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

// movedQuery is q asked m metres from its anchor along the bearing, returning
// to where it is asked.
func movedQuery(env *Env, q Query, bearingDeg, m float64) Query {
	q.Anchor = geo.Destination(q.Anchor, bearingDeg, m)
	q.AnchorNode = env.Graph.NearestNode(q.Anchor)
	q.ReturnNode = q.AnchorNode
	return q
}

// TestStatelessMethodsShareable pins what the doc comments of BruteForce and
// IndexQuadtree promise and bench/quality.go uses: one instance ranked from
// several goroutines at once answers every query as it does alone.
func TestStatelessMethodsShareable(t *testing.T) {
	env := testEnv(t)
	queries := make([]Query, 8)
	for i := range queries {
		queries[i] = movedQuery(env, testQuery(env), float64(45*i), float64(400*i))
	}
	for _, m := range []Method{NewBruteForce(env), NewIndexQuadtree(env)} {
		want := make([]OfferingTable, len(queries))
		for i, q := range queries {
			want[i] = m.Rank(q)
		}
		const goroutines = 4
		got := make([][]OfferingTable, goroutines)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g] = make([]OfferingTable, len(queries))
				for n := range queries {
					i := (n + 2*g) % len(queries) // each goroutine in an order of its own
					got[g][i] = m.Rank(queries[i])
				}
			}(g)
		}
		wg.Wait()
		for g := range got {
			if !reflect.DeepEqual(got[g], want) {
				t.Errorf("%s: goroutine %d ranked differently beside others than the method does alone", m.Name(), g)
			}
		}
	}
}

// TestEcoChargeCacheRule is the dynamic cache's rule (§IV.C) on the method
// itself: after one computed table, what the next query gets.
func TestEcoChargeCacheRule(t *testing.T) {
	env := testEnv(t)
	opts := EcoChargeOptions{RadiusM: 10000, ReuseDistM: 2000, TTL: 10 * time.Minute}
	first := testQuery(env)
	moved := func(m float64) Query { return movedQuery(env, first, 90, m) }
	issued := func(d time.Duration) Query {
		q := first
		q.Now, q.ETABase = first.Now.Add(d), first.ETABase.Add(d)
		return q
	}
	for _, tc := range []struct {
		name   string
		opts   EcoChargeOptions
		empty  bool // the first table has no entries
		reset  bool
		next   Query
		adapts bool
	}{
		{name: "same place, same time", opts: opts, next: first, adapts: true},
		{name: "moved within Q", opts: opts, next: moved(1900), adapts: true},
		{name: "moved beyond Q", opts: opts, next: moved(2100)},
		{name: "at the TTL", opts: opts, next: issued(10 * time.Minute), adapts: true},
		{name: "older than the TTL", opts: opts, next: issued(11 * time.Minute)},
		{name: "issued before the table", opts: opts, next: issued(-time.Minute)},
		{name: "empty table", opts: EcoChargeOptions{RadiusM: 1, ReuseDistM: 2000}, empty: true, next: first},
		{name: "after Reset", opts: opts, reset: true, next: first},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewEcoCharge(env, tc.opts)
			if table := m.Rank(first); table.Adapted || (len(table.Entries) == 0) != tc.empty {
				t.Fatalf("first table: adapted %v, %d entries", table.Adapted, len(table.Entries))
			}
			if tc.reset {
				m.Reset()
			}
			if table := m.Rank(tc.next); table.Adapted != tc.adapts {
				t.Errorf("second table: adapted %v, want %v", table.Adapted, tc.adapts)
			}
			wantHits := 0
			if tc.adapts {
				wantHits = 1
			}
			if hits, misses := m.Stats(); hits != wantHits || misses != 2-wantHits {
				t.Errorf("stats = %d hits / %d misses, want %d / %d", hits, misses, wantHits, 2-wantHits)
			}
		})
	}
}
