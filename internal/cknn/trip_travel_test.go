package cknn

// The fleet's seam along a route (travel.go, RunTripSupplied): a trip whose
// computed segments were searched elsewhere, once for every shard, must come
// out of each shard as the trip that searched for itself, table for table;
// the plan of which segments those are (ComputedSegments) must be the dynamic
// cache's own decision; and travel times that are anything less than a
// segment's search must be refused and the segment searched here.

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"ecocharge/internal/obs"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/trajectory"
)

// randomTrip routes between two random nodes at least minNodes apart on the
// path, departing at queryTime.
func randomTrip(t testing.TB, rng *rand.Rand, g *roadnet.Graph, minNodes int) trajectory.Trip {
	t.Helper()
	for try := 0; try < 200; try++ {
		a, b := roadnet.NodeID(rng.Intn(g.NumNodes())), roadnet.NodeID(rng.Intn(g.NumNodes()))
		if p, ok := g.ShortestPath(a, b, roadnet.DistanceWeight); ok && len(p.Nodes) >= minNodes {
			return trajectory.Trip{ID: 1, Path: p, Depart: queryTime}
		}
	}
	t.Fatal("no routable trip drawn")
	return trajectory.Trip{}
}

// tripSupplyFor runs the gateway's side for one trip: the plan, then each
// planned segment's search to every charger of the whole inventory within
// the radius plus the return node, read back at the shard's chargers.
func tripSupplyFor(t testing.TB, world, shard *Env, eco EcoChargeOptions, trip trajectory.Trip, opts TripOptions) []SegmentTravel {
	t.Helper()
	opts = opts.withDefaults()
	segs := trajectory.SegmentTrip(world.Graph, trip, opts.SegmentLenM)
	var out []SegmentTravel
	for _, si := range ComputedSegments(segs, eco) {
		q := QueryForSegment(trip, segs[si], opts)
		eq := eco.withDefaults().evalQuery(q)
		var targets []roadnet.NodeID
		for _, c := range world.Chargers.Within(eq.Anchor, eq.RadiusM) {
			targets = append(targets, c.Node)
		}
		ts, ok := SearchTravel(world, eco, q, append(targets, q.ReturnNode))
		if !ok {
			t.Fatal("SearchTravel declined an approximate-bounds segment")
		}
		times := &legs{back: []float64{}}
		for _, c := range shard.Chargers.Within(eq.Anchor, eq.RadiusM) {
			times.nodes = append(times.nodes, c.Node)
			times.out, times.back = append(times.out, ts.Seconds(c.Node)), append(times.back, ts.ReturnSeconds(c.Node))
		}
		times.nodes = append(times.nodes, q.ReturnNode)
		times.out, times.back = append(times.out, ts.Seconds(q.ReturnNode)), append(times.back, ts.ReturnSeconds(q.ReturnNode))
		st := SegmentTravel{Segment: si, Travel: Travel{Anchor: q.AnchorNode, Return: q.ReturnNode, Times: times}}
		st.ScaleLo, st.ScaleHi = ts.Scales()
		ts.Release()
		out = append(out, st)
	}
	return out
}

// computedIn lists the segments of a run whose tables were computed.
func computedIn(results []SegmentResult) []int {
	var out []int
	for i, r := range results {
		if !r.Table.Adapted {
			out = append(out, i)
		}
	}
	return out
}

// TestSuppliedTripMatchesOwnSearch: on symmetric and directed worlds, over
// random trips, per-driver weights, radii, Q and segment lengths, sequential
// and parallel filtering, each of three shards returns from RunTripSupplied
// what RunTrip returns, and starts no expansion for a segment it was handed.
func TestSuppliedTripMatchesOwnSearch(t *testing.T) {
	worlds := symmetricEnvs(t)
	worlds["urban, one arc one-way"] = directedTwin(t, worlds["urban"])
	worlds["one-way shortcuts"] = envOn(t, oneWayShortcutsGraph(3, 300), 60, 3)
	for name, world := range worlds {
		nTrips := 6
		if name == "Oldenburg" {
			nTrips = 2
		}
		rng := rand.New(rand.NewSource(31))
		entries, built := 0, 0
		for ti := 0; ti < nTrips; ti++ {
			trip := randomTrip(t, rng, world.Graph, 4)
			eco := EcoChargeOptions{
				RadiusM:    []float64{3000, 10000, 50000}[rng.Intn(3)],
				ReuseDistM: []float64{1, 1500, 0}[ti%3], // every segment computed; some; the default Q
			}
			opts := TripOptions{
				K: 2 + ti%4, SegmentLenM: []float64{800, 2500, 4000}[rng.Intn(3)], RadiusM: eco.RadiusM,
				Weights: Weights{L: 0.2 + rng.Float64(), A: 0.2 + rng.Float64(), D: 0.2 + rng.Float64()},
			}
			if ti == 0 {
				opts.Weights = Weights{} // the equal weights
			}
			for s := 0; s < 3; s++ {
				shard := shardOf(t, world, s, 3)
				want := RunTrip(shard, NewEcoCharge(shard, eco), trip, opts)
				travel := tripSupplyFor(t, world, shard, eco, trip, opts)
				full0, many0 := expansionsStarted()
				got, used := RunTripSupplied(shard, NewEcoCharge(shard, eco), trip, opts, travel)
				full1, many1 := expansionsStarted()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s trip %d shard %d: the supplied trip differs from the searched one", name, ti, s)
				}
				// A shard computes a segment nobody planned only after an empty
				// table; it searches for that one, and for no other.
				if own := len(computedIn(got)) - used; full1 != full0 || many1-many0 > uint64(2*own) || (own == 0) != (many1 == many0) {
					t.Fatalf("%s trip %d shard %d: %d expansions for %d segments computed on %d supplied searches",
						name, ti, s, full1-full0+many1-many0, len(computedIn(got)), used)
				}
				built += used
				for _, r := range got {
					entries += len(r.Table.Entries)
				}
			}
		}
		if entries < nTrips || built < nTrips {
			t.Fatalf("%s: %d entries on %d supplied searches over %d trips; the comparison is vacuous", name, entries, built, nTrips)
		}
	}
}

// TestTripPlanPredictsComputedSegments: the plan names exactly the segments
// EcoCharge computed up to and including the first one whose table came out
// empty, the segment after an empty table is always computed, and without an
// empty table the two agree on the whole trip — so a shard is handed a search
// for every segment it computes unless one of its tables was empty.
func TestTripPlanPredictsComputedSegments(t *testing.T) {
	env := testEnv(t)
	exact, diverged := 0, 0
	property := func(seed int64, qSel, rSel, lenSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		trip := randomTrip(t, rng, env.Graph, 10)
		eco := EcoChargeOptions{
			RadiusM:    []float64{300, 1200, 10000}[rSel%3], // the smallest leaves tables empty
			ReuseDistM: []float64{1, 900, 2500, 0}[qSel%4],
		}
		opts := TripOptions{K: 3, SegmentLenM: []float64{600, 1500, 4000}[lenSel%3], RadiusM: eco.RadiusM}
		results := RunTrip(env, NewEcoCharge(env, eco), trip, opts)
		segs := make([]trajectory.Segment, len(results))
		for i, r := range results {
			segs[i] = r.Segment
		}
		plan, ran := ComputedSegments(segs, eco), computedIn(results)
		firstEmpty := len(results)
		for i, r := range results {
			if !r.Table.Adapted && len(r.Table.Entries) == 0 {
				if i+1 < len(results) && results[i+1].Table.Adapted {
					t.Logf("seed %d: segment %d adapted an empty table", seed, i+1)
					return false
				}
				firstEmpty = min(firstEmpty, i)
			}
		}
		upTo := func(idx []int) []int {
			n, _ := slices.BinarySearch(idx, firstEmpty+1)
			return idx[:n]
		}
		if !slices.Equal(upTo(plan), upTo(ran)) {
			t.Logf("seed %d: planned %v, computed %v, first empty table at %d", seed, plan, ran, firstEmpty)
			return false
		}
		if firstEmpty == len(results) {
			exact++
		} else {
			diverged++
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
	if exact < 10 || diverged < 3 {
		t.Fatalf("%d trips without an empty table and %d with one; the property is not exercised on both", exact, diverged)
	}
}

// TestSuppliedTripRefuses: whatever is wrong with a segment's travel times,
// the segment is searched here, the trip is the one that searched for itself,
// the search is not counted as used and every search state goes back.
func TestSuppliedTripRefuses(t *testing.T) {
	world := testEnv(t)
	shard := shardOf(t, world, 0, 3)
	trip := randomTrip(t, rand.New(rand.NewSource(4)), world.Graph, 20)
	eco := EcoChargeOptions{RadiusM: 10000, ReuseDistM: 1500}
	opts := TripOptions{K: 3, SegmentLenM: 1500, RadiusM: eco.RadiusM}
	want := RunTrip(shard, NewEcoCharge(shard, eco), trip, opts)
	good := tripSupplyFor(t, world, shard, eco, trip, opts)
	if len(good) < 2 || len(good) != len(computedIn(want)) {
		t.Fatalf("%d searches planned for a trip that computes segments %v; pick another trip", len(good), computedIn(want))
	}
	if slices.Contains(computedIn(want), good[1].Segment+1) {
		t.Fatal("the segment after the second computed one is computed too; pick another trip")
	}
	nodes := roadnet.NodeID(world.Graph.NumNodes())

	// edit returns the good searches with the second one changed.
	edit := func(fn func(*SegmentTravel, *legs)) []SegmentTravel {
		out := slices.Clone(good)
		g := good[1].Times.(*legs)
		times := &legs{nodes: slices.Clone(g.nodes), out: slices.Clone(g.out), back: slices.Clone(g.back)}
		out[1].Times = times
		fn(&out[1], times)
		return out
	}
	last := len(good[1].Times.(*legs).nodes) - 1 // the return node's entry
	cases := map[string]struct {
		travel []SegmentTravel
		eco    EcoChargeOptions
		used   int
	}{
		"untouched":            {good, eco, len(good)},
		"wrong anchor":         {edit(func(st *SegmentTravel, _ *legs) { st.Anchor = (st.Anchor + 1) % nodes }), eco, len(good) - 1},
		"wrong return node":    {edit(func(st *SegmentTravel, _ *legs) { st.Return = (st.Return + 1) % nodes }), eco, len(good) - 1},
		"one leg":              {edit(func(st *SegmentTravel, _ *legs) { st.Return = roadnet.Invalid }), eco, len(good) - 1},
		"return out of range":  {edit(func(st *SegmentTravel, _ *legs) { st.Return = nodes }), eco, len(good) - 1},
		"a candidate short":    {edit(func(_ *SegmentTravel, l *legs) { l.nodes, l.out, l.back = l.nodes[1:], l.out[1:], l.back[1:] }), eco, len(good) - 1},
		"no return node entry": {edit(func(_ *SegmentTravel, l *legs) { l.nodes, l.out, l.back = l.nodes[:last], l.out[:last], l.back[:last] }), eco, len(good) - 1},
		"node out of range":    {edit(func(_ *SegmentTravel, l *legs) { l.nodes[0] = nodes }), eco, len(good) - 1},
		"NaN out":              {edit(func(_ *SegmentTravel, l *legs) { l.out[0] = math.NaN() }), eco, len(good) - 1},
		"negative back":        {edit(func(_ *SegmentTravel, l *legs) { l.back[0] = -1 }), eco, len(good) - 1},
		"scale not a band":     {edit(func(st *SegmentTravel, _ *legs) { st.ScaleLo = 1.5 }), eco, len(good) - 1},
		"another segment's":    {edit(func(st *SegmentTravel, _ *legs) { st.Segment++ }), eco, len(good) - 1},
		"out of order":         {[]SegmentTravel{good[1], good[0]}, eco, 1},
		"twice":                {[]SegmentTravel{good[0], good[0], good[1]}, eco, 2},
		"past the trip's end":  {append(slices.Clone(good), SegmentTravel{Segment: len(want), Travel: good[0].Travel}), eco, len(good)},
		"exact bounds":         {good, EcoChargeOptions{RadiusM: eco.RadiusM, ReuseDistM: eco.ReuseDistM, ExactDerouting: true}, 0},
	}
	acquires, releases := obs.Default().Counter("roadnet_pool_acquires_total"), obs.Default().Counter("roadnet_pool_releases_total")
	for name, tc := range cases {
		ref := want
		if tc.eco.ExactDerouting {
			ref = RunTrip(shard, NewEcoCharge(shard, tc.eco), trip, opts)
		}
		a0, r0 := acquires.Value(), releases.Value()
		_, many0 := expansionsStarted()
		got, used := RunTripSupplied(shard, NewEcoCharge(shard, tc.eco), trip, opts, tc.travel)
		_, many1 := expansionsStarted()
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: the trip differs from the one that searched for itself", name)
		}
		if used != tc.used {
			t.Errorf("%s: %d of %d searches used, want %d", name, used, len(tc.travel), tc.used)
		}
		legsPer := uint64(2)
		if tc.eco.ExactDerouting {
			legsPer = 4
		}
		if own := uint64(len(computedIn(got)) - used); many1-many0 != legsPer*own {
			t.Errorf("%s: %d expansions started for %d segments searched here", name, many1-many0, own)
		}
		if a, r := acquires.Value()-a0, releases.Value()-r0; a != r {
			t.Errorf("%s: %d search states acquired and %d released", name, a, r)
		}
	}
}
