package cknn

// Concurrency suite: the cache-coherence property of concurrent trips over
// one shared Env, a goroutine storm on the mutable shared structure
// (ShardedCache), and the parallel-trip benchmark. Run with -race; the CI
// test job does.

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"ecocharge/internal/geo"
	"ecocharge/internal/trajectory"
)

// TestSharedCacheTripCoherence is the cache-coherence property: k trips
// running concurrently over one shared Env and one shared ShardedCache must
// each produce exactly what a fresh single-trip run produces — per-owner
// slots mean a trip can never observe (or adapt) another trip's tables.
func TestSharedCacheTripCoherence(t *testing.T) {
	env := testEnv(t)
	opts := EcoChargeOptions{RadiusM: 10000, ReuseDistM: 3000}
	tripOpts := TripOptions{K: 3, SegmentLenM: 3000, RadiusM: 10000, Workers: 2}
	property := func(s uint8) bool {
		trips, err := trajectory.Generate(env.Graph, trajectory.GenConfig{
			N: 3, Seed: int64(s) + 1, MinTripKM: 5, MaxTripKM: 10,
			Start: queryTime, Window: time.Hour,
		})
		if err != nil || len(trips) == 0 {
			return false
		}
		shared := NewShardedCache()
		got := make([][]SegmentResult, len(trips))
		var wg sync.WaitGroup
		for i := range trips {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				m := NewEcoChargeShared(env, opts, shared)
				got[i] = RunTrip(env, m, trips[i], tripOpts)
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

func TestShardedCacheStorm(t *testing.T) {
	t.Parallel()
	cache := NewShardedCache()
	opts := EcoChargeOptions{}.withDefaults()
	anchor := geo.Point{Lat: 53, Lon: 8}
	const goroutines = 32
	var bad atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			owner := cache.NewOwner()
			table := OfferingTable{
				Anchor: anchor, GeneratedAt: queryTime,
				Entries: []Entry{mkEntry(int64(owner), 0.5, 0.6)},
			}
			q := Query{Anchor: anchor, Now: queryTime}
			for i := 0; i < 500; i++ {
				cache.Store(owner, table)
				got, ok := cache.Lookup(owner, q, opts)
				if !ok || got.Entries[0].Charger.ID != int64(owner) {
					bad.Store(true)
					return
				}
				if i%7 == 0 {
					cache.Invalidate(owner)
					if _, ok := cache.Lookup(owner, q, opts); ok {
						bad.Store(true)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if bad.Load() {
		t.Fatal("cache crossed owner slots or served an invalidated table")
	}
	if n := cache.Len(); n != goroutines {
		t.Fatalf("live slots after storm = %d, want %d", n, goroutines)
	}
}

func TestShardedCacheLookupSemantics(t *testing.T) {
	cache := NewShardedCache()
	owner := cache.NewOwner()
	opts := EcoChargeOptions{ReuseDistM: 2000, TTL: 10 * time.Minute}.withDefaults()
	anchor := geo.Point{Lat: 53, Lon: 8}
	table := OfferingTable{
		Anchor: anchor, GeneratedAt: queryTime,
		Entries: []Entry{mkEntry(1, 0.5, 0.6)},
	}
	cache.Store(owner, table)

	if _, ok := cache.Lookup(owner, Query{Anchor: anchor, Now: queryTime}, opts); !ok {
		t.Fatal("same-place same-time lookup missed")
	}
	// Beyond Q.
	far := Query{Anchor: geo.Destination(anchor, 90, 3000), Now: queryTime}
	if _, ok := cache.Lookup(owner, far, opts); ok {
		t.Error("lookup hit beyond the reuse distance")
	}
	// Beyond TTL.
	stale := Query{Anchor: anchor, Now: queryTime.Add(time.Hour)}
	if _, ok := cache.Lookup(owner, stale, opts); ok {
		t.Error("lookup hit beyond the TTL")
	}
	// A query issued before the table existed must not adapt it.
	early := Query{Anchor: anchor, Now: queryTime.Add(-time.Minute)}
	if _, ok := cache.Lookup(owner, early, opts); ok {
		t.Error("lookup hit a future table")
	}
	// Other owners never see the slot.
	other := cache.NewOwner()
	if _, ok := cache.Lookup(other, Query{Anchor: anchor, Now: queryTime}, opts); ok {
		t.Error("foreign owner hit the slot")
	}
}

func BenchmarkRunTripParallel(b *testing.B) {
	env := testEnv(b)
	trips, err := trajectory.Generate(env.Graph, trajectory.GenConfig{
		N: 1, Seed: 9, MinTripKM: 10, MaxTripKM: 14, Start: queryTime, Window: time.Hour,
	})
	if err != nil || len(trips) == 0 {
		b.Fatalf("trajectory.Generate: %v (%d trips)", err, len(trips))
	}
	trip := trips[0]
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			m := NewBruteForce(env)
			opts := TripOptions{K: 3, SegmentLenM: 1000, RadiusM: 10000, Workers: workers}
			segments := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				segments += len(RunTrip(env, m, trip, opts))
			}
			b.ReportMetric(float64(segments)/b.Elapsed().Seconds(), "segments/sec")
		})
	}
}
