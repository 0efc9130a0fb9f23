package cknn

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/ec"
	"ecocharge/internal/geo"
	"ecocharge/internal/interval"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/trajectory"
)

var queryTime = time.Date(2024, 6, 18, 9, 30, 0, 0, time.UTC)

// testEnv builds a small but realistic world shared across the package's
// tests: a 10×8 km urban grid with 150 chargers.
func testEnv(t testing.TB) *Env {
	t.Helper()
	g := roadnet.GenerateUrban(roadnet.UrbanConfig{
		Origin: geo.Point{Lat: 53.0, Lon: 8.0}, WidthKM: 10, HeightKM: 8,
		SpacingM: 500, RemoveFrac: 0.05, JitterFrac: 0.2, ArterialEach: 5, Seed: 1,
	})
	avail := ec.NewAvailabilityModel(11)
	set, err := charger.Generate(g, avail, charger.GenConfig{N: 150, Seed: 12})
	if err != nil {
		t.Fatalf("charger.Generate: %v", err)
	}
	env, err := NewEnv(g, set, ec.NewSolarModel(13), avail, ec.NewTrafficModel(14), EnvConfig{RadiusM: 10000})
	if err != nil {
		t.Fatalf("NewEnv: %v", err)
	}
	return env
}

func testQuery(env *Env) Query {
	anchor := env.Graph.Node(roadnet.NodeID(env.Graph.NumNodes() / 2))
	return Query{
		Anchor:     anchor.P,
		AnchorNode: anchor.ID,
		ReturnNode: anchor.ID,
		Now:        queryTime,
		ETABase:    queryTime.Add(10 * time.Minute),
		K:          3,
		RadiusM:    10000,
	}
}

func TestWeights(t *testing.T) {
	if err := EqualWeights().Validate(); err != nil {
		t.Fatal(err)
	}
	w := EqualWeights()
	if math.Abs(w.L+w.A+w.D-1) > 1e-12 {
		t.Errorf("equal weights sum to %v", w.L+w.A+w.D)
	}
	n := (Weights{L: 2, A: 1, D: 1}).Normalized()
	if math.Abs(n.L-0.5) > 1e-12 || math.Abs(n.A-0.25) > 1e-12 {
		t.Errorf("Normalized = %+v", n)
	}
	if err := (Weights{L: -1, A: 1, D: 1}).Validate(); err == nil {
		t.Error("negative weight accepted")
	}
	if err := (Weights{}).Validate(); err == nil {
		t.Error("zero weights accepted")
	}
	for _, w := range []Weights{OnlyL(), OnlyA(), OnlyD()} {
		if err := w.Validate(); err != nil {
			t.Errorf("single-objective weights invalid: %+v", w)
		}
	}
}

func TestComponentsSCMatchesEquations(t *testing.T) {
	c := Components{
		L: interval.New(0.6, 0.9),
		A: interval.New(0.3, 0.5),
		D: interval.New(0.1, 0.4),
	}
	sc := c.SC(EqualWeights())
	wantMin := (0.6 + 0.3 + (1 - 0.4)) / 3
	wantMax := (0.9 + 0.5 + (1 - 0.1)) / 3
	if math.Abs(sc.Min-wantMin) > 1e-12 || math.Abs(sc.Max-wantMax) > 1e-12 {
		t.Fatalf("SC = %v, want [%v, %v]", sc, wantMin, wantMax)
	}
}

func mkEntry(id int64, min, max float64) Entry {
	return Entry{Charger: &charger.Charger{ID: id}, SC: interval.I{Min: min, Max: max}}
}

func TestRankIntersection(t *testing.T) {
	// Chargers 1 and 2 are in both top-2 rankings; 3 only leads on max,
	// 4 only on min.
	entries := []Entry{
		mkEntry(1, 0.8, 0.9),
		mkEntry(2, 0.7, 0.85),
		mkEntry(3, 0.1, 0.95), // wide: top by max, bottom by min
		mkEntry(4, 0.75, 0.76),
	}
	got := Rank(entries, 2)
	if len(got) != 2 {
		t.Fatalf("Rank returned %d entries", len(got))
	}
	// top-2 by max: {3, 1}; top-2 by min: {1, 4}; intersection: {1}; pad
	// with best remaining by max: 3.
	if got[0].Charger.ID != 1 {
		t.Errorf("first ranked = %d, want 1", got[0].Charger.ID)
	}
	ids := map[int64]bool{got[0].Charger.ID: true, got[1].Charger.ID: true}
	if !ids[3] {
		t.Errorf("padding should add charger 3 (best by SC_max): got %v", got)
	}
}

func TestRankIsSubsetAndSorted(t *testing.T) {
	entries := []Entry{
		mkEntry(1, 0.2, 0.4), mkEntry(2, 0.5, 0.6), mkEntry(3, 0.1, 0.9),
		mkEntry(4, 0.55, 0.58), mkEntry(5, 0.3, 0.35),
	}
	got := Rank(entries, 3)
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].SC.Mid() > got[i-1].SC.Mid() {
			t.Errorf("not sorted by midpoint at %d", i)
		}
	}
}

func TestRankEdgeCases(t *testing.T) {
	if got := Rank(nil, 3); got != nil {
		t.Errorf("Rank(nil) = %v", got)
	}
	if got := Rank([]Entry{mkEntry(1, 0.1, 0.2)}, 0); got != nil {
		t.Errorf("Rank k=0 = %v", got)
	}
	// k larger than pool returns the whole pool.
	got := Rank([]Entry{mkEntry(1, 0.1, 0.2), mkEntry(2, 0.3, 0.4)}, 10)
	if len(got) != 2 {
		t.Errorf("k>n returned %d", len(got))
	}
}

func TestRankDeterministicOnTies(t *testing.T) {
	entries := []Entry{mkEntry(3, 0.5, 0.5), mkEntry(1, 0.5, 0.5), mkEntry(2, 0.5, 0.5)}
	got := Rank(entries, 3)
	for i, want := range []int64{1, 2, 3} {
		if got[i].Charger.ID != want {
			t.Fatalf("tie order: got %v", got)
		}
	}
}

// Regression for the tie-breaking hardening: entries equal on the primary
// sort key must fall through the full (SC_max, SC_min, charger ID) order,
// so chargers with equal SC midpoints always emerge in ID order and no
// input permutation — in particular none a parallel evaluation could
// produce — changes the emitted table.
func TestRankTieBreakTotalOrder(t *testing.T) {
	entries := []Entry{
		mkEntry(5, 0.40, 0.60), // mid 0.50
		mkEntry(2, 0.45, 0.55), // mid 0.50, lower SC_max → after the 0.60 group
		mkEntry(9, 0.40, 0.60), // identical interval to 5 and 1 → ID order
		mkEntry(1, 0.40, 0.60),
	}
	want := []int64{1, 5, 9, 2}
	for perm := 0; perm < len(entries); perm++ {
		rotated := append(append([]Entry(nil), entries[perm:]...), entries[:perm]...)
		got := Rank(rotated, len(entries))
		for i, id := range want {
			if got[i].Charger.ID != id {
				t.Fatalf("permutation %d: order %v, want %v", perm, summarizeIDs(got), want)
			}
		}
	}
}

func summarizeIDs(entries []Entry) []int64 {
	ids := make([]int64, len(entries))
	for i, e := range entries {
		ids[i] = e.Charger.ID
	}
	return ids
}

func TestNewEnvValidation(t *testing.T) {
	env := testEnv(t)
	if env.MaxLKW <= 0 {
		t.Error("MaxLKW not derived")
	}
	if env.MaxDeroutSec <= 0 {
		t.Error("MaxDeroutSec not derived")
	}
	if _, err := NewEnv(nil, env.Chargers, env.Solar, env.Avail, env.Traffic, EnvConfig{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewEnv(env.Graph, nil, env.Solar, env.Avail, env.Traffic, EnvConfig{}); err == nil {
		t.Error("nil chargers accepted")
	}
	if _, err := NewEnv(env.Graph, env.Chargers, nil, env.Avail, env.Traffic, EnvConfig{}); err == nil {
		t.Error("nil solar accepted")
	}
}

func TestDeroutingCostProperties(t *testing.T) {
	env := testEnv(t)
	q := testQuery(env).normalized()
	d := env.deroutingMaps(q, math.Inf(1), nil, exactBounds)
	defer d.Release()

	// The anchor itself (= return node) has zero derouting.
	iv, ok := d.Cost(q.AnchorNode)
	if !ok {
		t.Fatal("anchor unreachable from itself")
	}
	if iv.Min != 0 {
		t.Errorf("derouting to anchor = %v, want min 0", iv)
	}
	// All costs are valid intervals with Min ≥ 0.
	for _, c := range env.Chargers.All() {
		iv, ok := d.Cost(c.Node)
		if !ok {
			continue
		}
		if !iv.Valid() || iv.Min < 0 {
			t.Fatalf("invalid derouting interval %v for charger %d", iv, c.ID)
		}
	}
}

func TestDeroutingZeroForOnRouteCharger(t *testing.T) {
	env := testEnv(t)
	q := testQuery(env).normalized()
	// Pick a return node one hop away and verify a "charger" exactly at the
	// return node has zero minimum derouting.
	var next roadnet.NodeID = -1
	env.Graph.OutEdges(q.AnchorNode, func(e roadnet.Edge) {
		if next < 0 {
			next = e.To
		}
	})
	if next < 0 {
		t.Skip("anchor has no outgoing edges")
	}
	q.ReturnNode = next
	d := env.deroutingMaps(q, math.Inf(1), nil, exactBounds)
	defer d.Release()
	iv, ok := d.Cost(next)
	if !ok {
		t.Fatal("return node unreachable")
	}
	if iv.Min > 1 { // up to a second of interval slack
		t.Errorf("on-route node derouting = %v, want ~0", iv)
	}
}

func TestEvaluateProducesNormalizedComponents(t *testing.T) {
	env := testEnv(t)
	eng := Engine{Env: env}
	q := testQuery(env).normalized()
	d := env.deroutingMaps(q, math.Inf(1), nil, exactBounds)
	defer d.Release()
	evaluated := 0
	for i := range env.Chargers.All() {
		c := &env.Chargers.All()[i]
		entry, ok := eng.evaluate(c, d, q)
		if !ok {
			continue
		}
		evaluated++
		for name, iv := range map[string]interval.I{"L": entry.Comp.L, "A": entry.Comp.A, "D": entry.Comp.D} {
			if !iv.Valid() || iv.Min < -1e-12 || iv.Max > 1+1e-12 {
				t.Fatalf("charger %d: component %s = %v not normalized", c.ID, name, iv)
			}
		}
		if entry.Comp.ETA.Before(q.ETABase) {
			t.Fatalf("charger %d: ETA before base", c.ID)
		}
		if !entry.SC.Valid() {
			t.Fatalf("charger %d: invalid SC %v", c.ID, entry.SC)
		}
	}
	if evaluated < 100 {
		t.Fatalf("only %d chargers evaluable", evaluated)
	}
}

func TestBruteForceTopKStructure(t *testing.T) {
	env := testEnv(t)
	bf := NewBruteForce(env)
	q := testQuery(env)
	table := bf.Rank(q)
	if len(table.Entries) != 3 {
		t.Fatalf("table has %d entries, want 3", len(table.Entries))
	}
	ids := table.IDs()
	seen := map[int64]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate charger %d in table", id)
		}
		seen[id] = true
	}
	if top, ok := table.Top(); !ok || top.Charger.ID != ids[0] {
		t.Error("Top() inconsistent with IDs()")
	}
	if table.Adapted {
		t.Error("brute force table marked adapted")
	}
}

// The filtering-phase prune must not change results: whole entries, in
// order, against a prune-free evaluation of the same pool — for drivers with
// weights of their own, with and without failing sources.
func TestPruningIsLossless(t *testing.T) {
	base := testEnv(t)
	rng := rand.New(rand.NewSource(319))
	for i := 0; i < 50; i++ {
		q := testQuery(base)
		q.Weights = drawWeights(rng)
		q = q.normalized()
		for _, rate := range []float64{0, 0.3} {
			env := faulted(base, rate, uint64(i))
			d := env.deroutingMaps(q, math.Inf(1), nil, exactBounds)
			cands := allChargerPtrs(env)
			eng := Engine{Env: env}
			var plain []Entry
			for _, c := range cands {
				if e, ok := eng.evaluate(c, d, q); ok {
					plain = append(plain, e)
				}
			}
			unpruned := Rank(plain, q.K)
			if pruned := eng.rankPool(cands, d, q); !reflect.DeepEqual(pruned, unpruned) {
				t.Errorf("weights %+v, fault rate %v:\n  pruned   %v\n  unpruned %v",
					q.Weights, rate, entryIDs(pruned), entryIDs(unpruned))
			}
			d.Release()
		}
	}
}

func entryIDs(es []Entry) []int64 { return OfferingTable{Entries: es}.IDs() }

func TestQuadtreeMethodSubsetOfNearest(t *testing.T) {
	env := testEnv(t)
	m := NewIndexQuadtree(env)
	q := testQuery(env)
	table := m.Rank(q)
	if len(table.Entries) == 0 {
		t.Fatal("empty table")
	}
	// Every returned charger must be among the factor*k nearest.
	nearest := env.Chargers.KNearest(q.Anchor, m.CandidateFactor*3)
	nearIDs := map[int64]bool{}
	for _, c := range nearest {
		nearIDs[c.ID] = true
	}
	for _, e := range table.Entries {
		if !nearIDs[e.Charger.ID] {
			t.Errorf("charger %d not among nearest candidates", e.Charger.ID)
		}
	}
}

func TestRandomMethodWithinRadius(t *testing.T) {
	env := testEnv(t)
	m := NewRandom(env, 99)
	q := testQuery(env)
	q.RadiusM = 3000
	table := m.Rank(q)
	if len(table.Entries) == 0 {
		t.Fatal("empty random table")
	}
	for _, e := range table.Entries {
		if d := geo.Distance(q.Anchor, e.Charger.P); d > 3000 {
			t.Errorf("random charger %d at %.0f m outside radius", e.Charger.ID, d)
		}
	}
	// Distinct picks.
	seen := map[int64]bool{}
	for _, e := range table.Entries {
		if seen[e.Charger.ID] {
			t.Fatal("duplicate random pick")
		}
		seen[e.Charger.ID] = true
	}
}

func TestEcoChargeCacheBehaviour(t *testing.T) {
	env := testEnv(t)
	m := NewEcoCharge(env, EcoChargeOptions{RadiusM: 10000, ReuseDistM: 2000})
	q := testQuery(env)

	t1 := m.Rank(q)
	if t1.Adapted {
		t.Fatal("first table must be computed, not adapted")
	}
	// Move 500 m: within Q, must adapt.
	q2 := q
	q2.Anchor = geo.Destination(q.Anchor, 90, 500)
	q2.AnchorNode = env.Graph.NearestNode(q2.Anchor)
	t2 := m.Rank(q2)
	if !t2.Adapted {
		t.Fatal("movement within Q did not hit the cache")
	}
	// Adapted table re-ranks the same chargers.
	inOld := map[int64]bool{}
	for _, id := range t1.IDs() {
		inOld[id] = true
	}
	for _, id := range t2.IDs() {
		if !inOld[id] {
			t.Errorf("adapted table introduced charger %d not in cached table", id)
		}
	}
	// Move 5 km: beyond Q from the cached anchor, must recompute.
	q3 := q
	q3.Anchor = geo.Destination(q.Anchor, 90, 5000)
	q3.AnchorNode = env.Graph.NearestNode(q3.Anchor)
	t3 := m.Rank(q3)
	if t3.Adapted {
		t.Fatal("movement beyond Q still hit the cache")
	}
	hits, misses := m.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("cache stats = %d hits / %d misses, want 1/2", hits, misses)
	}
	// Reset drops the cache.
	m.Reset()
	if t4 := m.Rank(q); t4.Adapted {
		t.Error("Rank after Reset adapted a dropped cache")
	}
}

func TestEcoChargeCacheTTL(t *testing.T) {
	env := testEnv(t)
	m := NewEcoCharge(env, EcoChargeOptions{RadiusM: 10000, ReuseDistM: 5000, TTL: 10 * time.Minute})
	q := testQuery(env)
	m.Rank(q)
	// Same place, 30 minutes later: TTL expired, must recompute.
	q2 := q
	q2.Now = q.Now.Add(30 * time.Minute)
	q2.ETABase = q2.Now
	if table := m.Rank(q2); table.Adapted {
		t.Fatal("stale cache adapted beyond TTL")
	}
}

func TestEcoChargeMatchesBruteForceWithinRadius(t *testing.T) {
	// With the whole environment inside R, the derouting budget covering
	// the whole graph, and no cache reuse, EcoCharge's fresh computation
	// must match brute force exactly. (Under a tight budget EcoCharge
	// intentionally drops chargers costing more than MaxDeroutSec to
	// visit, while brute force keeps them with D clamped to 1.)
	env := testEnv(t)
	big, err := NewEnv(env.Graph, env.Chargers, env.Solar, env.Avail, env.Traffic, EnvConfig{RadiusM: 100000})
	if err != nil {
		t.Fatal(err)
	}
	env = big
	bf := NewBruteForce(env)
	eco := NewEcoCharge(env, EcoChargeOptions{RadiusM: 100000, ReuseDistM: 1, ExactDerouting: true})
	q := testQuery(env)
	q.RadiusM = 100000
	want := bf.Rank(q).IDs()
	got := eco.Rank(q).IDs()
	if !slices.Equal(want, got) {
		t.Fatalf("EcoCharge %v != BruteForce %v", got, want)
	}
}

func TestRunTripAndSplitList(t *testing.T) {
	env := testEnv(t)
	trips, err := trajectory.Generate(env.Graph, trajectory.GenConfig{
		N: 3, Seed: 5, MinTripKM: 6, MaxTripKM: 12, Start: queryTime, Window: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewEcoCharge(env, EcoChargeOptions{RadiusM: 10000, ReuseDistM: 3000})
	for _, trip := range trips {
		results := RunTrip(env, m, trip, TripOptions{K: 3, SegmentLenM: 3000, RadiusM: 10000})
		if len(results) == 0 {
			t.Fatalf("trip %d: no segment results", trip.ID)
		}
		for i, r := range results {
			if r.Segment.Index != i {
				t.Fatalf("trip %d: segment order broken", trip.ID)
			}
			if len(r.Table.Entries) == 0 {
				t.Fatalf("trip %d segment %d: empty table", trip.ID, i)
			}
		}
		sl := SplitList(env, m, trip, TripOptions{K: 3, SegmentLenM: 3000, RadiusM: 10000})
		if len(sl) == 0 {
			t.Fatalf("trip %d: empty split list", trip.ID)
		}
		if sl[0].SegmentIndex != 0 {
			t.Errorf("trip %d: first split point not at trip start", trip.ID)
		}
		// Consecutive split points must carry different NN sets.
		for i := 1; i < len(sl); i++ {
			if slices.Equal(sl[i-1].NN, sl[i].NN) {
				t.Errorf("trip %d: redundant split point %d", trip.ID, i)
			}
		}
	}
}

func TestTruthSCInUnitRange(t *testing.T) {
	env := testEnv(t)
	eng := Engine{Env: env}
	q := testQuery(env)
	tm := eng.TruthMaps(q)
	n := 0
	for i := range env.Chargers.All() {
		c := &env.Chargers.All()[i]
		sc, ok := eng.TruthSC(q, tm, c)
		if !ok {
			continue
		}
		n++
		if sc < 0 || sc > 1 {
			t.Fatalf("truth SC %v out of range for charger %d", sc, c.ID)
		}
	}
	if n < 100 {
		t.Fatalf("only %d chargers scored", n)
	}
}

func TestBruteForceBeatsRandomOnTruth(t *testing.T) {
	env := testEnv(t)
	eng := Engine{Env: env}
	bf := NewBruteForce(env)
	rnd := NewRandom(env, 7)
	var bfSum, rndSum float64
	for trial := 0; trial < 10; trial++ {
		node := roadnet.NodeID((trial * 37) % env.Graph.NumNodes())
		q := testQuery(env)
		q.Anchor = env.Graph.Node(node).P
		q.AnchorNode = node
		q.ReturnNode = node
		tm := eng.TruthMaps(q)
		for _, e := range bf.Rank(q).Entries {
			if sc, ok := eng.TruthSC(q, tm, e.Charger); ok {
				bfSum += sc
			}
		}
		for _, e := range rnd.Rank(q).Entries {
			if sc, ok := eng.TruthSC(q, tm, e.Charger); ok {
				rndSum += sc
			}
		}
	}
	if bfSum <= rndSum {
		t.Fatalf("brute force truth SC %.3f not above random %.3f", bfSum, rndSum)
	}
}

func TestWeightsChangeRanking(t *testing.T) {
	env := testEnv(t)
	bf := NewBruteForce(env)
	q := testQuery(env)
	q.K = 5
	base := bf.Rank(q).IDs()
	differs := false
	for _, w := range []Weights{OnlyL(), OnlyA(), OnlyD()} {
		q2 := q
		q2.Weights = w
		if !slices.Equal(base, bf.Rank(q2).IDs()) {
			differs = true
		}
	}
	if !differs {
		t.Error("single-objective weights never changed the ranking")
	}
}

func TestBottomK(t *testing.T) {
	b := bottomK{k: 3}
	if b.kth() != math.Inf(-1) {
		t.Error("empty bottomK kth not -Inf")
	}
	for _, v := range []float64{0.5, 0.1, 0.9, 0.3, 0.7} {
		b.push(v)
	}
	// The 3 largest are {0.9, 0.7, 0.5}; kth (3rd best) = 0.5.
	if got := b.kth(); got != 0.5 {
		t.Errorf("kth = %v, want 0.5", got)
	}
	z := bottomK{}
	if z.push(1) {
		t.Error("k=0 bottomK claims readiness")
	}
}
