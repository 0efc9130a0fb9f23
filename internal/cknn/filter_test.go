package cknn

// The filtering phase's bound: that it never undercuts the score it bounds,
// and how much of a pool it dismisses.

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/obs"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/trajectory"
)

// hashFaults fails each (component, charger) fetch with probability rate,
// decided by a hash: pure, as FaultPolicy demands. internal/fault has the
// policy the chaos suites use, but it imports this package.
type hashFaults struct {
	seed uint64
	rate float64
}

func (f hashFaults) FetchOK(comp Component, chargerID int64, _ time.Time) bool {
	x := f.seed ^ uint64(chargerID)*0x9e3779b97f4a7c15 ^ uint64(comp+1)<<56
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/(1<<53) >= f.rate
}

// faulted returns a copy of env whose sources fail at the given rate; rate 0
// keeps the nil policy.
func faulted(env *Env, rate float64, seed uint64) *Env {
	cp := *env
	if rate > 0 {
		cp.Faults = hashFaults{seed: seed, rate: rate}
	}
	return &cp
}

// drawWeights draws a normalized weight vector, one time in four with an
// objective switched off.
func drawWeights(rng *rand.Rand) Weights {
	w := Weights{L: rng.Float64(), A: rng.Float64(), D: rng.Float64()}
	switch rng.Intn(12) {
	case 0:
		w.L = 0
	case 1:
		w.A = 0
	case 2:
		w.D = 0
	}
	if w == (Weights{}) {
		return EqualWeights()
	}
	return w.Normalized()
}

// TestPruneBoundIsSound: whatever the anchor, the arrival and issue times,
// the weights and the sources that are down, the bound the filtering phase
// dismisses a candidate by is at least the SC_max evaluation gives it — as
// floats, with no tolerance: a bound one ulp short drops a charger from a
// table it belongs in.
func TestPruneBoundIsSound(t *testing.T) {
	plain := testEnv(t)
	envs := []*Env{plain, envOn(t, plain.Graph, 150, 5)} // without and with turbines
	prop := func(envSel, rateSel uint8, node uint16, issueHour uint16, etaMin uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rate := []float64{0, 0.1, 0.3}[int(rateSel)%3]
		env := faulted(envs[int(envSel)%len(envs)], rate, uint64(seed))
		eng := Engine{Env: env}
		anchor := env.Graph.Node(roadnet.NodeID(int(node) % env.Graph.NumNodes()))
		now := queryTime.Add(time.Duration(issueHour%(24*365)) * time.Hour)
		q := Query{
			Anchor: anchor.P, AnchorNode: anchor.ID, ReturnNode: anchor.ID,
			Now: now, ETABase: now.Add(time.Duration(etaMin%(96*60)) * time.Minute),
			K: 3, RadiusM: 10000, Weights: drawWeights(rng),
		}.normalized()
		d := env.deroutingMaps(q, math.Inf(1), nil, exactBounds)
		defer d.Release()
		for _, c := range allChargerPtrs(env) {
			bound, priced := eng.pruneBound(c, d, q)
			entry, ok := eng.evaluate(c, d, q)
			if !ok {
				continue
			}
			if !priced || bound < entry.SC.Max {
				t.Errorf("charger %d (%v, %.1f kW RES) weights %+v faults %v degraded %v: bound %v (priced %v) under SC_max %v",
					c.ID, c.Rate, c.RESKW(), q.Weights, rate, entry.Comp.Degraded, bound, priced, entry.SC.Max)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// oldenburgWorld is the Oldenburg scenario graph with one part in shards of
// the inventory — what one shard of a fleet that size ranks over, rendezvous
// sharding handing each a pseudo-random share — and a query from the middle
// of it.
func oldenburgWorld(tb testing.TB, shards int) (*Env, Query) {
	tb.Helper()
	p, err := trajectory.ProfileByName("Oldenburg")
	if err != nil {
		tb.Fatal(err)
	}
	g := p.BuildGraph(42)
	env := envOn(tb, g, p.Chargers/shards, 42)
	center := g.Node(g.NearestNode(g.Bounds().Center()))
	return env, Query{
		Anchor: center.P, AnchorNode: center.ID, ReturnNode: center.ID,
		Now: queryTime, ETABase: queryTime, K: 5,
		Weights: Weights{L: 0.5, A: 0.3, D: 0.2},
	}
}

// filterOutcomes reads the three filtering-phase counters: every candidate
// of every ranking adds to exactly one.
func filterOutcomes() (evaluated, pruned, unreachable uint64) {
	r := obs.Default()
	return r.Counter("cknn_evaluated_total").Value(),
		r.Counter("cknn_prune_rejected_total").Value(),
		r.Counter("cknn_unreachable_total").Value()
}

// TestFilterBoundPrunes gates the share of a pool the filtering phase still
// forecasts, on the shard world of BenchmarkRankOnceOldenburg: twenty drivers
// with weights of their own. A bound that takes L for 1 whatever the plug
// forecasts half the candidates here (3 333 of 6 648); one that knows the
// plug, under a quarter (1 573) visiting them closest first and under a
// fifth (1 218) visiting them best bound first against the k-th SC_min;
// against the k-th SC_max, the score the table is selected by, 710. Every
// candidate of every ranking is counted under exactly one outcome, the ones
// a visit that ended early never reached included.
func TestFilterBoundPrunes(t *testing.T) {
	env, q := oldenburgWorld(t, 3)
	rng := rand.New(rand.NewSource(24))
	e0, p0, u0 := filterOutcomes()
	for i := 0; i < 20; i++ {
		anchor := env.Graph.Node(roadnet.NodeID(rng.Intn(env.Graph.NumNodes())))
		q.Anchor, q.AnchorNode, q.ReturnNode = anchor.P, anchor.ID, anchor.ID
		q.Weights = drawWeights(rng)
		eq, pq, uq := filterOutcomes()
		if table, _ := RankOnce(env, EcoChargeOptions{RadiusM: 50000}, q, nil, nil); len(table.Entries) != q.K {
			t.Fatalf("query %d: %d entries, want %d", i, len(table.Entries), q.K)
		}
		e, p, u := filterOutcomes()
		if counted, cands := (e-eq)+(p-pq)+(u-uq), len(env.Chargers.Within(q.Anchor, 50000)); counted != uint64(cands) {
			t.Fatalf("query %d: %d candidates, %d evaluated + %d pruned + %d unreachable", i, cands, e-eq, p-pq, u-uq)
		}
	}
	e1, p1, u1 := filterOutcomes()
	evaluated, cands := e1-e0, (e1-e0)+(p1-p0)+(u1-u0)
	t.Logf("%d of %d candidates forecast", evaluated, cands)
	if cands == 0 || evaluated*100 > cands*12 {
		t.Fatalf("%d of %d candidates forecast, want at most 12%%", evaluated, cands)
	}
}

// TestCandidateOrderIsCostOnly: the order a ranking's candidates arrive in
// decides how many of them the filtering phase forecasts and nothing else.
// The same pool closest first, in the index's order, reversed and shuffled
// ranks to the same entries, field for field, under weights of every kind and
// with sources down; and the filtering phase, its scratch warm, allocates
// nothing whatever the order.
func TestCandidateOrderIsCostOnly(t *testing.T) {
	base, q := oldenburgWorld(t, 3)
	q.RadiusM = 50000
	rng := rand.New(rand.NewSource(26))
	var store charger.Candidates
	for i := 0; i < 30; i++ {
		env := faulted(base, []float64{0, 0.3}[i%2], uint64(i))
		eng := Engine{Env: env}
		anchor := env.Graph.Node(roadnet.NodeID(rng.Intn(env.Graph.NumNodes())))
		q.Anchor, q.AnchorNode, q.ReturnNode = anchor.P, anchor.ID, anchor.ID
		q.Weights = drawWeights(rng)
		q = q.normalized()
		d := env.deroutingMaps(q, env.MaxDeroutSec, nil, approxBounds)
		sorted := env.Chargers.Within(q.Anchor, q.RadiusM)
		want := eng.rankPool(sorted, d, q, nil)
		if len(want) != q.K {
			t.Fatalf("query %d: %d entries, want %d", i, len(want), q.K)
		}
		orders := map[string][]*charger.Charger{
			"index order": slices.Clone(env.Chargers.WithinInto(&store, q.Anchor, q.RadiusM)),
			"reversed":    slices.Clone(sorted),
			"shuffled":    slices.Clone(sorted),
		}
		slices.Reverse(orders["reversed"])
		rng.Shuffle(len(sorted), func(a, b int) {
			orders["shuffled"][a], orders["shuffled"][b] = orders["shuffled"][b], orders["shuffled"][a]
		})
		for name, cands := range orders {
			if got := eng.rankPool(cands, d, q, nil); !reflect.DeepEqual(got, want) {
				t.Errorf("query %d, weights %+v, candidates %s: entries %v, closest first %v", i, q.Weights, name, entryIDs(got), entryIDs(want))
			}
		}
		if i == 0 && !raceEnabled {
			s := new(filterScratch)
			s.fit(len(sorted))
			eng.evalPool(sorted, d, q, s)
			if allocs := testing.AllocsPerRun(20, func() { eng.evalPool(orders["shuffled"], d, q, s) }); allocs != 0 {
				t.Errorf("the filtering phase allocates %v times per ranking on warm scratch", allocs)
			}
		}
		d.Release()
	}
}
