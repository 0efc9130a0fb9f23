package roadnet

// The supplied expansion (many.go) against the searches it stands in for:
// loaded with what one search to a large target set found, it must read at
// every subset of those targets exactly as this graph's own search to the
// subset reads — the property a fleet shard relies on when it builds on the
// gateway's search instead of running its own.

import (
	"math"
	"math/rand"
	"testing"
)

// travelOf reads a search's verdict at nodes the way a gateway does.
func travelOf(x Expansion, nodes []NodeID) []float64 {
	out := make([]float64, len(nodes))
	for i, n := range nodes {
		out[i] = math.Inf(1)
		if d, ok := x.Dist(n); ok {
			out[i] = d
		}
	}
	return out
}

// supplied loads a search's verdicts at nodes the way a shard does; ok is
// false, and nothing is held, when one of them does not load.
func supplied(g *Graph, origin NodeID, nodes []NodeID, dist []float64) (Expansion, bool) {
	x, ok := g.SupplyFrom(origin)
	if !ok {
		return Expansion{}, false
	}
	for i, n := range nodes {
		if !x.Supply(n, dist[i]) {
			x.Release()
			return Expansion{}, false
		}
	}
	return x, true
}

func TestSuppliedExpansionReadsLikeOwnSearch(t *testing.T) {
	for gname, g := range diffGraphs() {
		for tname, cw := range diffTables() {
			rng := rand.New(rand.NewSource(97))
			for trial := 0; trial < 6; trial++ {
				src := NodeID(rng.Intn(g.NumNodes()))
				for _, bound := range []float64{math.Inf(1), 1500, 4000} {
					// The big search: to forty nodes.
					var all []NodeID
					for i := 0; i < 40; i++ {
						all = append(all, NodeID(rng.Intn(g.NumNodes())))
					}
					big := g.ExpandToMany(src, all, cw, bound)
					secs := travelOf(big, all)
					big.Release()

					// One shard's share: every third target.
					var mine []NodeID
					var mineSecs []float64
					for i := 0; i < len(all); i += 3 {
						mine, mineSecs = append(mine, all[i]), append(mineSecs, secs[i])
					}
					sup, ok := supplied(g, src, mine, mineSecs)
					if !ok {
						t.Fatalf("%s/%s: a search's own verdicts did not load", gname, tname)
					}
					own := g.ExpandToMany(src, mine, cw, bound)
					for _, n := range append([]NodeID{src}, mine...) {
						sd, sok := sup.Dist(n)
						od, ook := own.Dist(n)
						if sok != ook || math.Float64bits(sd) != math.Float64bits(od) {
							t.Fatalf("%s/%s bound %v node %d: supplied (%v, %v), own search (%v, %v)", gname, tname, bound, n, sd, sok, od, ook)
						}
						if !sup.Covers(n) || (n != src && !own.Covers(n)) {
							t.Fatalf("%s/%s node %d: a target is not covered (supplied %v, own %v)", gname, tname, n, sup.Covers(n), own.Covers(n))
						}
					}
					if other := all[1]; other != src && !containsNode(mine, other) && sup.Covers(other) {
						t.Fatalf("%s/%s: node %d was not supplied and is covered", gname, tname, other)
					}
					sup.Release()
					own.Release()
				}
			}
		}
	}
}

func containsNode(ns []NodeID, n NodeID) bool {
	for _, m := range ns {
		if m == n {
			return true
		}
	}
	return false
}

// TestSuppliedExpansionRefusesWhatCannotLoad: a refusal holds no search
// state (the pool check of the package's TestMain would catch one), and a
// node the supplier did not reach is covered but unreached.
func TestSuppliedExpansionRefusesWhatCannotLoad(t *testing.T) {
	g := diffGraphs()["urban1"]
	n := NodeID(g.NumNodes())
	for name, tc := range map[string]struct {
		origin NodeID
		nodes  []NodeID
		secs   []float64
	}{
		"node past the end":   {0, []NodeID{2, n}, []float64{3, 1}},
		"negative node":       {0, []NodeID{2, -1}, []float64{3, 1}},
		"negative time":       {0, []NodeID{2, 1}, []float64{3, -1}},
		"NaN":                 {0, []NodeID{2, 1}, []float64{3, math.NaN()}},
		"-Inf":                {0, []NodeID{2, 1}, []float64{3, math.Inf(-1)}},
		"origin past the end": {n, []NodeID{2, 1}, []float64{3, 1}},
		"negative origin":     {Invalid, []NodeID{2, 1}, []float64{3, 1}},
	} {
		acquired, released := met.poolAcquires.Value(), met.poolReleases.Value()
		if x, ok := supplied(g, tc.origin, tc.nodes, tc.secs); ok {
			x.Release()
			t.Errorf("%s: loaded", name)
		}
		if a, r := met.poolAcquires.Value()-acquired, met.poolReleases.Value()-released; a != r {
			t.Errorf("%s: the refusal acquired %d search states and released %d", name, a, r)
		}
	}

	x, ok := supplied(g, 0, []NodeID{1, 2, 2}, []float64{math.Inf(1), 7, math.Inf(1)})
	if !ok {
		t.Fatal("an unreached node did not load")
	}
	defer x.Release()
	if _, reached := x.Dist(1); reached || !x.Covers(1) {
		t.Fatalf("a node supplied at +Inf reads reached=%v covered=%v, want unreached and covered", reached, x.Covers(1))
	}
	if _, reached := x.Dist(2); reached || !x.Covers(2) {
		t.Fatal("a node supplied reached and then unreached does not read as supplied last")
	}
	if d, reached := x.Dist(0); !reached || d > 0 || !x.Covers(0) {
		t.Fatalf("the origin reads (%v, %v), covered %v; want seeded at 0", d, reached, x.Covers(0))
	}
	if (Expansion{}).Covers(0) {
		t.Fatal("the zero Expansion covers a node")
	}
}
