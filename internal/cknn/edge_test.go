package cknn

import (
	"math"
	"testing"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/ec"
	"ecocharge/internal/geo"
	"ecocharge/internal/roadnet"
)

// TestEmptyChargerSet: every method must return an empty table, not panic.
func TestEmptyChargerSet(t *testing.T) {
	g := roadnet.GenerateUrban(roadnet.UrbanConfig{
		Origin: geo.Point{Lat: 53.0, Lon: 8.0}, WidthKM: 3, HeightKM: 3,
		SpacingM: 500, Seed: 1,
	})
	empty, err := charger.NewSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(g, empty, ec.NewSolarModel(1), ec.NewAvailabilityModel(2), ec.NewTrafficModel(3), EnvConfig{})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{
		Anchor: g.Node(0).P, AnchorNode: 0, ReturnNode: 0,
		Now: queryTime, K: 3, RadiusM: 10000,
	}
	for _, m := range []Method{
		NewBruteForce(env),
		NewIndexQuadtree(env),
		NewRandom(env, 1),
		NewEcoCharge(env, EcoChargeOptions{}),
	} {
		if table := m.Rank(q); len(table.Entries) != 0 {
			t.Errorf("%s: non-empty table on empty charger set", m.Name())
		}
	}
}

// TestUnreachableChargersExcluded: chargers on a disconnected island must
// never appear in brute-force results, and the engine must not panic.
func TestUnreachableChargersExcluded(t *testing.T) {
	g := roadnet.NewGraph(6, 8)
	// Mainland: 0-1-2 connected line. Island: 3-4-5 connected line, no
	// bridge.
	pts := []geo.Point{
		{Lat: 53.00, Lon: 8.00}, {Lat: 53.00, Lon: 8.01}, {Lat: 53.00, Lon: 8.02},
		{Lat: 53.05, Lon: 8.00}, {Lat: 53.05, Lon: 8.01}, {Lat: 53.05, Lon: 8.02},
	}
	for _, p := range pts {
		g.AddNode(p)
	}
	g.AddBidirectional(0, 1, 0, roadnet.ClassLocal)
	g.AddBidirectional(1, 2, 0, roadnet.ClassLocal)
	g.AddBidirectional(3, 4, 0, roadnet.ClassLocal)
	g.AddBidirectional(4, 5, 0, roadnet.ClassLocal)
	g.Freeze()

	avail := ec.NewAvailabilityModel(1)
	cs := []charger.Charger{
		{ID: 1, P: pts[2], Node: 2, Rate: charger.RateAC22, PanelKW: 20, Plugs: 2, Timetable: avail.GenerateTimetable(1)},
		{ID: 2, P: pts[4], Node: 4, Rate: charger.RateDC150, PanelKW: 150, Plugs: 2, Timetable: avail.GenerateTimetable(2)}, // island: better but unreachable
	}
	set, err := charger.NewSet(cs)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(g, set, ec.NewSolarModel(2), avail, ec.NewTrafficModel(3), EnvConfig{})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Anchor: pts[0], AnchorNode: 0, ReturnNode: 0, Now: queryTime, K: 2, RadiusM: 50000}
	table := NewBruteForce(env).Rank(q)
	if len(table.Entries) != 1 || table.Entries[0].Charger.ID != 1 {
		t.Fatalf("expected only the reachable charger, got %v", table.IDs())
	}
	// Truth scoring of the unreachable charger reports !ok.
	eng := Engine{Env: env}
	tm := eng.TruthMaps(q)
	if _, ok := eng.TruthSC(q, tm, &set.All()[1]); ok {
		t.Error("truth SC computed for unreachable charger")
	}
}

// TestApproxDeroutingSoundness: the single-expansion approximation must
// bracket the exact mid-traffic distances and stay non-negative.
func TestApproxDeroutingSoundness(t *testing.T) {
	env := testEnv(t)
	q := testQuery(env).normalized()
	exact := env.deroutingMaps(q, math.Inf(1), nil, exactBounds)
	defer exact.Release()
	approx := env.deroutingMaps(q, math.Inf(1), nil, approxBounds)
	defer approx.Release()
	checked := 0
	for _, c := range env.Chargers.All() {
		ai, okA := approx.Cost(c.Node)
		ei, okE := exact.Cost(c.Node)
		if okA != okE {
			t.Fatalf("charger %d: reachability disagreement approx=%v exact=%v", c.ID, okA, okE)
		}
		if !okA {
			continue
		}
		checked++
		if !ai.Valid() || ai.Min < 0 {
			t.Fatalf("charger %d: invalid approx interval %v", c.ID, ai)
		}
		// The approximation brackets the exact midpoint within the scaled
		// band plus slack for route divergence between the metrics.
		slack := 0.25*ei.Mid() + 30
		if ai.Mid() > ei.Mid()+ei.Width()/2+slack || ai.Mid() < ei.Mid()-ei.Width()/2-slack {
			t.Fatalf("charger %d: approx mid %.1f far from exact mid %.1f (width %.1f)",
				c.ID, ai.Mid(), ei.Mid(), ei.Width())
		}
	}
	if checked < 100 {
		t.Fatalf("only %d chargers checked", checked)
	}
}

// TestExactVsApproxRankingOverlap: the approximation must preserve most of
// the exact top-k across many query points.
func TestExactVsApproxRankingOverlap(t *testing.T) {
	env := testEnv(t)
	exactM := NewEcoCharge(env, EcoChargeOptions{RadiusM: 50000, ReuseDistM: 1, ExactDerouting: true})
	approxM := NewEcoCharge(env, EcoChargeOptions{RadiusM: 50000, ReuseDistM: 1})
	overlap, total := 0, 0
	for trial := 0; trial < 20; trial++ {
		node := roadnet.NodeID((trial * 101) % env.Graph.NumNodes())
		q := Query{
			Anchor: env.Graph.Node(node).P, AnchorNode: node, ReturnNode: node,
			Now: queryTime, K: 3, RadiusM: 50000,
		}
		exactM.Reset()
		approxM.Reset()
		want := exactM.Rank(q).IDs()
		got := approxM.Rank(q).IDs()
		inWant := map[int64]bool{}
		for _, id := range want {
			inWant[id] = true
		}
		for _, id := range got {
			if inWant[id] {
				overlap++
			}
			total++
		}
	}
	if total == 0 || float64(overlap)/float64(total) < 0.8 {
		t.Fatalf("approx ranking overlap %d/%d below 80%%", overlap, total)
	}
}

// TestQueryNormalizationDefaults exercises the zero-value path.
func TestQueryNormalizationDefaults(t *testing.T) {
	q := Query{ReturnNode: -1, Now: queryTime}.normalized()
	if q.K != 3 || q.RadiusM != 50000 {
		t.Errorf("defaults wrong: %+v", q)
	}
	if q.Weights != EqualWeights() {
		t.Errorf("default weights %+v", q.Weights)
	}
	if !q.ETABase.Equal(queryTime) {
		t.Errorf("ETABase default wrong: %v", q.ETABase)
	}
	if q.ReturnNode != q.AnchorNode {
		t.Errorf("ReturnNode default wrong: %v", q.ReturnNode)
	}
}

// TestKLargerThanPool: asking for more chargers than exist within R.
func TestKLargerThanPool(t *testing.T) {
	env := testEnv(t)
	q := testQuery(env)
	q.K = 10000
	table := NewEcoCharge(env, EcoChargeOptions{RadiusM: 100000}).Rank(q)
	if len(table.Entries) == 0 || len(table.Entries) > env.Chargers.Len() {
		t.Fatalf("k>pool returned %d entries", len(table.Entries))
	}
}

// TestAdaptedTableDropsOutOfRadiusChargers: after a big in-Q move near the
// radius boundary, chargers drifting outside R disappear from the adapted
// table rather than being served stale.
func TestAdaptedTableDropsOutOfRadiusChargers(t *testing.T) {
	env := testEnv(t)
	// Anchor at the west edge; radius barely covers some eastern chargers.
	west := env.Graph.NearestNode(geo.Point{Lat: 53.04, Lon: 8.0})
	q := Query{
		Anchor: env.Graph.Node(west).P, AnchorNode: west, ReturnNode: west,
		Now: queryTime, K: 5, RadiusM: 6000,
	}
	m := NewEcoCharge(env, EcoChargeOptions{RadiusM: 6000, ReuseDistM: 5000})
	first := m.Rank(q)
	if len(first.Entries) == 0 {
		t.Skip("no chargers near the west edge")
	}
	// Move 4 km west (within Q): eastern picks may now exceed R.
	q2 := q
	q2.Anchor = geo.Destination(q.Anchor, 270, 4000)
	q2.AnchorNode = env.Graph.NearestNode(q2.Anchor)
	second := m.Rank(q2)
	if !second.Adapted {
		t.Fatal("expected cache hit")
	}
	for _, e := range second.Entries {
		if d := geo.Distance(q2.Anchor, e.Charger.P); d > 6000 {
			t.Errorf("adapted table kept charger %d at %.0f m outside R", e.Charger.ID, d)
		}
	}
}

// TestSecondsDur sanity.
func TestSecondsDur(t *testing.T) {
	if secondsDur(1.5) != 1500*time.Millisecond {
		t.Errorf("secondsDur(1.5) = %v", secondsDur(1.5))
	}
}
