package fleet

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/ec"
	"ecocharge/internal/eis"
	"ecocharge/internal/experiment"
	"ecocharge/internal/geo"
	"ecocharge/internal/interval"
	"ecocharge/internal/roadnet"
)

var fixedNow = time.Date(2024, 6, 18, 9, 30, 0, 0, time.UTC)

// fakeClock is a manually advanced clock for breaker cooldowns.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testEnv mirrors the eis package's synthetic scenario: an 8×6 km urban
// grid with 80 chargers.
func testEnv(t testing.TB) *cknn.Env {
	t.Helper()
	g := roadnet.GenerateUrban(roadnet.UrbanConfig{
		Origin: geo.Point{Lat: 53.0, Lon: 8.0}, WidthKM: 8, HeightKM: 6,
		SpacingM: 500, RemoveFrac: 0.05, JitterFrac: 0.2, ArterialEach: 5, Seed: 1,
	})
	avail := ec.NewAvailabilityModel(2)
	set, err := charger.Generate(g, avail, charger.GenConfig{N: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	env, err := cknn.NewEnv(g, set, ec.NewSolarModel(4), avail, ec.NewTrafficModel(5), cknn.EnvConfig{RadiusM: 8000})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestPartitionStableAndMinimal pins the rendezvous properties the fleet
// depends on: ownership is a pure function of (id, n), every shard owns
// something at realistic sizes, and growing the fleet only moves chargers
// onto the new shard — never between surviving shards.
func TestPartitionStableAndMinimal(t *testing.T) {
	p3, p4 := Partition{N: 3}, Partition{N: 4}
	counts := make([]int, 3)
	moved, kept := 0, 0
	for id := int64(0); id < 1000; id++ {
		own := p3.ShardOf(id)
		if own != p3.ShardOf(id) {
			t.Fatalf("ShardOf(%d) unstable", id)
		}
		counts[own]++
		switch next := p4.ShardOf(id); {
		case next == own:
			kept++
		case next == 3:
			moved++
		default:
			t.Fatalf("charger %d moved between surviving shards: %d → %d", id, own, next)
		}
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d owns no chargers out of 1000", s)
		}
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate rebalance: moved=%d kept=%d", moved, kept)
	}
}

// TestShardEnvPartitionsInventory: the shard environments tile the parent
// inventory exactly and keep the parent's normalizers, which is what makes
// per-charger scores shard-independent.
func TestShardEnvPartitionsInventory(t *testing.T) {
	env := testEnv(t)
	const n = 3
	seen := make(map[int64]int)
	total := 0
	for s := 0; s < n; s++ {
		se, err := ShardEnv(env, s, n)
		if err != nil {
			t.Fatalf("ShardEnv(%d): %v", s, err)
		}
		//ecolint:ignore floateq normalizers must be copied bit-identically, not recomputed
		if se.MaxLKW != env.MaxLKW || se.MaxDeroutSec != env.MaxDeroutSec {
			t.Fatalf("shard %d recomputed normalizers: MaxLKW %v vs %v, MaxDeroutSec %v vs %v",
				s, se.MaxLKW, env.MaxLKW, se.MaxDeroutSec, env.MaxDeroutSec)
		}
		for _, c := range se.Chargers.All() {
			if prev, dup := seen[c.ID]; dup {
				t.Fatalf("charger %d owned by shards %d and %d", c.ID, prev, s)
			}
			seen[c.ID] = s
			if own := (Partition{N: n}).ShardOf(c.ID); own != s {
				t.Fatalf("charger %d in shard %d but partition says %d", c.ID, s, own)
			}
			if p, _ := env.Chargers.ByID(c.ID); c.Timetable != p.Timetable {
				t.Fatalf("charger %d in shard %d holds a timetable of its own, not the world's", c.ID, s)
			}
			total++
		}
	}
	if total != env.Chargers.Len() {
		t.Fatalf("shards hold %d chargers, parent holds %d", total, env.Chargers.Len())
	}

	if _, err := ShardEnv(env, 3, 3); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// TestShardEnvSharesTimetables: the three partitions of the benchmark's
// world (Oldenburg at scale 0.005, 1 000 chargers) copy chargers, not their
// 1 344-byte popular-times tables, so building them allocates well under a
// table per charger. Copying the tables costs at least 1.4 KB a charger.
func TestShardEnvSharesTimetables(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sc, err := experiment.BuildScenario("Oldenburg", 0.005, 42)
	if err != nil {
		t.Fatal(err)
	}
	const n, ceiling = 3, 1024 // bytes a charger
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for s := 0; s < n; s++ {
		if _, err := ShardEnv(sc.Env, s, n); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	chargers := uint64(sc.Env.Chargers.Len())
	if got := (after.TotalAlloc - before.TotalAlloc) / chargers; got > ceiling {
		t.Fatalf("building %d partitions of %d chargers allocates %d B a charger, want ≤ %d", n, chargers, got, ceiling)
	}
}

// TestMergeRecoversGlobalRank is the merge-correctness theorem as a
// property test: splitting random entries across shards, ranking each shard
// with the real cknn.Rank, and merging the per-shard tables must reproduce
// the global Rank exactly — IDs and order.
func TestMergeRecoversGlobalRank(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(14)
		k := 1 + rng.Intn(6)
		shards := 1 + rng.Intn(4)
		entries := make([]cknn.Entry, n)
		perShard := make([][]cknn.Entry, shards)
		for i := range entries {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			if rng.Intn(5) == 0 {
				b = a // point intervals exercise the tie-break chain
			}
			e := cknn.Entry{
				Charger: &charger.Charger{ID: int64(i + 1)},
				SC:      interval.FromBounds(a, b),
			}
			entries[i] = e
			s := rng.Intn(shards)
			perShard[s] = append(perShard[s], e)
		}
		want := cknn.Rank(nil, entries, k)

		var pool []eis.OfferingEntry
		for _, sub := range perShard {
			for _, e := range cknn.Rank(nil, sub, k) {
				pool = append(pool, eis.OfferingEntry{
					ChargerID: e.Charger.ID,
					SC:        eis.IntervalJSON{Min: e.SC.Min, Max: e.SC.Max},
				})
			}
		}
		got := mergeEntries(pool, k)

		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d entries, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].ChargerID != want[i].Charger.ID {
				t.Fatalf("trial %d: position %d holds charger %d, want %d",
					trial, i, got[i].ChargerID, want[i].Charger.ID)
			}
		}
	}
}

// TestSynthEntryIsIgnoranceBound: synthesized entries carry [0,1] on every
// component, the full degraded mask, and an SC computed through the real
// scoring path.
func TestSynthEntryIsIgnoranceBound(t *testing.T) {
	c := charger.Charger{ID: 42, P: geo.Point{Lat: 53, Lon: 8}, Rate: charger.RateDC50}
	e := synthEntry(c, cknn.Weights{L: 2, A: 1, D: 1}.Normalized())
	if e.Degraded != uint8(cknn.DegradedAll) {
		t.Fatalf("mask %#x, want DegradedAll", e.Degraded)
	}
	for name, iv := range map[string]eis.IntervalJSON{"l": e.L, "a": e.A, "d": e.D} {
		if iv.Min != 0 || iv.Max != 1 {
			t.Fatalf("component %s = [%v,%v], want [0,1]", name, iv.Min, iv.Max)
		}
	}
	if e.SC.Min < 0 || e.SC.Max > 1 || e.SC.Min > e.SC.Max {
		t.Fatalf("SC [%v,%v] outside [0,1]", e.SC.Min, e.SC.Max)
	}
	if e.RateKW != c.Rate.KW() {
		t.Fatalf("RateKW %v, want %v", e.RateKW, c.Rate.KW())
	}
}
