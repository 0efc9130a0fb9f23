package cknn

// Differential suite for the batched derouting maps: deroutingMaps with a
// target set must price every target bit-identically to both the full-ball
// expansions (targets == nil) and the original map-backed, always-two-leg
// implementation, across the exact/approx × query
// shape × bound matrix. The all-nodes run extends the comparison to every
// node of the graph — with the whole graph as the target set, early
// termination never fires and the batched expansion degenerates to the full
// ball, so Cost/TravelTo must agree everywhere, not just at chargers.

import (
	"math"
	"testing"

	"ecocharge/internal/charger"
	"ecocharge/internal/roadnet"
)

// allChargerPtrs adapts the charger set to the pointer slice the ranking
// methods hand to deroutTargets.
func allChargerPtrs(env *Env) []*charger.Charger {
	all := env.Chargers.All()
	out := make([]*charger.Charger, len(all))
	for i := range all {
		out[i] = &all[i]
	}
	return out
}

// compareDeroutingAtTargets checks batch ≡ full ≡ map-backed ref at every
// target node, bit for bit, for both Cost and TravelTo.
func compareDeroutingAtTargets(t *testing.T, label string, batch, full DeroutingMaps, ref refDerouting, targets []roadnet.NodeID) {
	t.Helper()
	priced := 0
	for _, n := range targets {
		bc, bok := batch.Cost(n)
		fc, fok := full.Cost(n)
		rc, rok := ref.cost(n)
		if bok != fok || bok != rok {
			t.Fatalf("%s node %d: Cost reachability batch=%v full=%v ref=%v", label, n, bok, fok, rok)
		}
		if bok {
			priced++
			if !sameInterval(bc, fc) || !sameInterval(bc, rc) {
				t.Fatalf("%s node %d: Cost batch=%v full=%v ref=%v", label, n, bc, fc, rc)
			}
		}
		bt, bok2 := batch.TravelTo(n)
		ft, fok2 := full.TravelTo(n)
		rt, rok2 := ref.travelTo(n)
		if bok2 != fok2 || bok2 != rok2 {
			t.Fatalf("%s node %d: TravelTo reachability batch=%v full=%v ref=%v", label, n, bok2, fok2, rok2)
		}
		if bok2 && (!sameInterval(bt, ft) || !sameInterval(bt, rt)) {
			t.Fatalf("%s node %d: TravelTo batch=%v full=%v ref=%v", label, n, bt, ft, rt)
		}
	}
	if priced == 0 && len(targets) > 1 {
		t.Fatalf("%s: no target was priced; the comparison is vacuous", label)
	}
}

// batchQueryMatrix is the query-shape × bound matrix shared by the batched
// differential tests: anchored return, distinct return, defaulted return,
// each unbounded, tightly bounded, and budget-bounded.
func batchQueryMatrix(env *Env) (map[string]Query, []float64) {
	base := testQuery(env).normalized()
	distinctRet := base
	distinctRet.ReturnNode = roadnet.NodeID(env.Graph.NumNodes() / 3)
	noRet := base
	noRet.ReturnNode = -1
	noRet = noRet.normalized()
	return map[string]Query{
		"anchored": base, "distinctReturn": distinctRet, "defaultReturn": noRet,
	}, []float64{math.Inf(1), 600, base.RadiusM / avgUrbanSpeed}
}

// TestBatchedDeroutingMatchesFullBallAtTargets is the production-shaped
// differential property: with the candidate chargers (plus return node) as
// the target set — exactly what the ranking methods pass — both batched
// variants must reproduce the full-ball and map-backed prices at every
// target.
func TestBatchedDeroutingMatchesFullBallAtTargets(t *testing.T) {
	env := testEnv(t)
	queries, bounds := batchQueryMatrix(env)
	for qname, q := range queries {
		for _, bound := range bounds {
			targets := deroutTargets(allChargerPtrs(env), q.ReturnNode)

			batchE := env.deroutingMaps(q, bound, targets, exactBounds)
			fullE := env.deroutingMaps(q, bound, nil, exactBounds)
			refE := refDeroutingExact(env, q, bound)
			compareDeroutingAtTargets(t, qname+"/exact", batchE, fullE, refE, targets)
			batchE.Release()
			fullE.Release()

			batchA := env.deroutingMaps(q, bound, targets, approxBounds)
			fullA := env.deroutingMaps(q, bound, nil, approxBounds)
			refA := refDeroutingApprox(env, q, bound)
			compareDeroutingAtTargets(t, qname+"/approx", batchA, fullA, refA, targets)
			batchA.Release()
			fullA.Release()
		}
	}
}

// TestBatchedDeroutingAllNodesMatchesEverywhere widens the target set to
// the whole graph: the batched expansion then settles exactly the full
// ball, and Cost/TravelTo must match the map-backed oracle at every node —
// the same every-node sweep the full-ball suite runs, now through the
// batched entry point.
func TestBatchedDeroutingAllNodesMatchesEverywhere(t *testing.T) {
	env := testEnv(t)
	all := make([]roadnet.NodeID, env.Graph.NumNodes())
	for i := range all {
		all[i] = roadnet.NodeID(i)
	}
	queries, bounds := batchQueryMatrix(env)
	for qname, q := range queries {
		for _, bound := range bounds {
			batchE := env.deroutingMaps(q, bound, all, exactBounds)
			refE := refDeroutingExact(env, q, bound)
			compareDerouting(t, env, qname+"/exact/allNodes", batchE, refE)
			batchE.Release()

			batchA := env.deroutingMaps(q, bound, all, approxBounds)
			refA := refDeroutingApprox(env, q, bound)
			compareDerouting(t, env, qname+"/approx/allNodes", batchA, refA)
			batchA.Release()
		}
	}
}

// TestBatchedDeroutingEdgeCases pins the corners the ranking methods can
// reach: a return-node-only target set (no candidates survived filtering),
// anchor==return with a zero-cost baseline, and a bound too small to settle
// any charger — in each the batched maps must behave exactly like the
// full-ball maps at the nodes the caller may read.
func TestBatchedDeroutingEdgeCases(t *testing.T) {
	env := testEnv(t)
	q := testQuery(env).normalized()

	// No candidates: deroutTargets still carries the return node, and the
	// anchored query prices the anchor itself at derouting zero.
	targets := deroutTargets(nil, q.ReturnNode)
	if len(targets) != 1 || targets[0] != q.ReturnNode {
		t.Fatalf("deroutTargets(nil, ret) = %v", targets)
	}
	d := env.deroutingMaps(q, math.Inf(1), targets, exactBounds)
	if c, ok := d.Cost(q.AnchorNode); !ok || c.Min != 0 || c.Max != 0 {
		t.Fatalf("anchored return-only targets: Cost(anchor) = %v, %v; want [0,0], true", c, ok)
	}
	d.Release()

	// Bound smaller than the hop to any neighbor: every charger off the
	// anchor must be unreachable through both paths.
	tiny := 1e-9
	targets = deroutTargets(allChargerPtrs(env), q.ReturnNode)
	batch := env.deroutingMaps(q, tiny, targets, exactBounds)
	full := env.deroutingMaps(q, tiny, nil, exactBounds)
	for _, n := range targets {
		_, bok := batch.Cost(n)
		_, fok := full.Cost(n)
		if bok != fok {
			t.Fatalf("tiny bound: Cost reachability at %d batch=%v full=%v", n, bok, fok)
		}
		if bok && n != q.AnchorNode {
			t.Fatalf("tiny bound priced charger node %d", n)
		}
	}
	batch.Release()
	full.Release()

	// A nil target set selects the full ball (callers without a candidate
	// set keep the old semantics).
	dm := env.deroutingMaps(q, math.Inf(1), nil, exactBounds)
	da := env.deroutingMaps(q, math.Inf(1), nil, approxBounds)
	refE := refDeroutingExact(env, q, math.Inf(1))
	refA := refDeroutingApprox(env, q, math.Inf(1))
	compareDerouting(t, env, "nilTargets/exact", dm, refE)
	compareDerouting(t, env, "nilTargets/approx", da, refA)
	dm.Release()
	da.Release()
}

// TestBatchedDeroutingCounters checks the observability contract: batched
// computations tick cknn_derouting_batched_total and count their targets.
func TestBatchedDeroutingCounters(t *testing.T) {
	env := testEnv(t)
	q := testQuery(env).normalized()
	targets := deroutTargets(allChargerPtrs(env), q.ReturnNode)
	batchedBefore := met.deroutBatched.Value()
	targetsBefore := met.deroutTargets.Value()
	d := env.deroutingMaps(q, math.Inf(1), targets, exactBounds)
	d.Release()
	da := env.deroutingMaps(q, math.Inf(1), targets, approxBounds)
	da.Release()
	if got := met.deroutBatched.Value() - batchedBefore; got != 2 {
		t.Errorf("deroutBatched advanced by %d, want 2", got)
	}
	if got := met.deroutTargets.Value() - targetsBefore; got != 2*uint64(len(targets)) {
		t.Errorf("deroutTargets advanced by %d, want %d", got, 2*len(targets))
	}
}

// BenchmarkRankBatchedVsFull prices a full Rank call per method with the
// batched target-aware derouting (production) against the full-ball oracle
// path (FullDerouting), isolating what the batching buys end to end.
func BenchmarkRankBatchedVsFull(b *testing.B) {
	env := testEnv(b)
	q := testQuery(env)
	for _, mode := range []struct {
		name string
		full bool
	}{{"Batched", false}, {"FullBall", true}} {
		for _, m := range []Method{NewBruteForce(env), NewIndexQuadtree(env)} {
			b.Run(m.Name()+"/"+mode.name, func(b *testing.B) {
				env.FullDerouting = mode.full
				defer func() { env.FullDerouting = false }()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m.Rank(q)
				}
			})
		}
	}
}

// TestBatchedDeroutingZeroAllocSteadyState asserts the acceptance
// criterion on the cknn layer: with the pool warm and the target slice in
// hand, batched derouting (build, read every target, release) allocates
// nothing in steady state.
func TestBatchedDeroutingZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	env := testEnv(t)
	q := testQuery(env).normalized()
	budget := q.RadiusM / avgUrbanSpeed
	targets := deroutTargets(allChargerPtrs(env), q.ReturnNode)
	for i := 0; i < 4; i++ {
		d := env.deroutingMaps(q, budget, targets, exactBounds)
		d.Release()
	}
	for name, run := range map[string]func() DeroutingMaps{
		"exact":  func() DeroutingMaps { return env.deroutingMaps(q, budget, targets, exactBounds) },
		"approx": func() DeroutingMaps { return env.deroutingMaps(q, budget, targets, approxBounds) },
	} {
		allocs := testing.AllocsPerRun(20, func() {
			d := run()
			for _, n := range targets {
				d.Cost(n)
				d.TravelTo(n)
			}
			d.Release()
		})
		if allocs != 0 {
			t.Errorf("%s batched derouting allocates %.1f allocs/op steady-state, want 0", name, allocs)
		}
	}
}
