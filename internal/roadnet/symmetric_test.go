package roadnet

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"ecocharge/internal/geo"
)

// lineGraph returns an unfrozen graph of n nodes on a meridian, no edges.
func lineGraph(n int) *Graph {
	g := NewGraph(n, 0)
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{Lat: 53 + 0.01*float64(i), Lon: 8})
	}
	return g
}

// TestSymmetric pins what Freeze calls an undirected graph: every arc has a
// twin of the same class and bit-identical length, counted with
// multiplicity.
func TestSymmetric(t *testing.T) {
	oneULP := math.Nextafter(100, 200)
	for _, tc := range []struct {
		name  string
		build func() *Graph
		want  bool
		// lossyCSV: the CSV's one decimal of a metre rounds the asymmetry away.
		lossyCSV bool
	}{
		{"undirected grid", func() *Graph { return smallUrban(3) }, true, false},
		{"urban generator", func() *Graph { return GenerateUrban(DefaultUrbanConfig()) }, true, false},
		{"highway generator", func() *Graph { return GenerateHighway(DefaultHighwayConfig()) }, true, false},
		{"empty graph", func() *Graph { return NewGraph(0, 0) }, true, false},
		{"nodes without arcs", func() *Graph { return lineGraph(3) }, true, false},
		{"one one-way arc", func() *Graph {
			g := lineGraph(3)
			g.AddBidirectional(0, 1, 100, ClassLocal)
			g.AddEdge(1, 2, 100, ClassLocal)
			return g
		}, false, false},
		{"undirected grid plus one one-way arc", func() *Graph {
			return withOneWayArc(smallUrban(3))
		}, false, false},
		{"twin of another class", func() *Graph {
			g := lineGraph(2)
			g.AddEdge(0, 1, 100, ClassLocal)
			g.AddEdge(1, 0, 100, ClassArterial)
			return g
		}, false, false},
		{"twin one ulp longer", func() *Graph {
			g := lineGraph(2)
			g.AddEdge(0, 1, 100, ClassLocal)
			g.AddEdge(1, 0, oneULP, ClassLocal)
			return g
		}, false, true},
		{"unequal parallel-arc multiplicity", func() *Graph {
			g := lineGraph(2)
			g.AddEdge(0, 1, 100, ClassLocal)
			g.AddEdge(0, 1, 100, ClassLocal)
			g.AddEdge(1, 0, 100, ClassLocal)
			return g
		}, false, false},
		{"parallel arcs paired in another order", func() *Graph {
			g := lineGraph(3)
			g.AddEdge(0, 1, 100, ClassLocal)
			g.AddEdge(0, 1, 70, ClassHighway)
			g.AddEdge(2, 0, 30, ClassLocal)
			g.AddEdge(1, 0, 70, ClassHighway)
			g.AddEdge(0, 2, 30, ClassLocal)
			g.AddEdge(1, 0, 100, ClassLocal)
			return g
		}, true, false},
		{"same degrees, arcs between other nodes", func() *Graph {
			g := lineGraph(3) // a directed triangle: in- and out-degree 1 everywhere
			g.AddEdge(0, 1, 100, ClassLocal)
			g.AddEdge(1, 2, 100, ClassLocal)
			g.AddEdge(2, 0, 100, ClassLocal)
			return g
		}, false, false},
		{"self-loop alone", func() *Graph {
			g := lineGraph(1)
			g.AddEdge(0, 0, 5, ClassLocal)
			return g
		}, true, false},
		{"self-loops beside twins", func() *Graph {
			g := lineGraph(2)
			g.AddBidirectional(0, 1, 100, ClassLocal)
			g.AddEdge(1, 1, 5, ClassArterial)
			g.AddEdge(1, 1, 5, ClassArterial)
			return g
		}, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			if !g.frozen && g.Symmetric() {
				t.Error("Symmetric() is true before Freeze")
			}
			g.Freeze()
			if got := g.Symmetric(); got != tc.want {
				t.Fatalf("Symmetric() = %v, want %v", got, tc.want)
			}
			if g.NumNodes() == 0 {
				return // WriteCSV of an empty graph has nothing to read back
			}
			// The CSV interchange keeps the answer: twins are written, and
			// rounded, alike.
			var buf bytes.Buffer
			if err := g.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := ReadCSV(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := back.Symmetric(), tc.want || tc.lossyCSV; got != want {
				t.Fatalf("after the CSV round trip Symmetric() = %v, want %v", got, want)
			}
		})
	}
}

// withOneWayArc rebuilds a frozen graph and appends one one-way arc between
// the endpoints of its first edge, far too long to lie on a shortest path:
// every distance stays what it was, the graph stops being symmetric.
func withOneWayArc(g *Graph) *Graph {
	out := NewGraph(g.NumNodes(), g.NumEdges()+1)
	for i := 0; i < g.NumNodes(); i++ {
		out.AddNode(g.Node(NodeID(i)).P)
	}
	edges := g.Edges()
	for _, e := range edges {
		out.AddEdge(e.From, e.To, e.Length, e.Class)
	}
	out.AddEdge(edges[0].From, edges[0].To, 1e12, edges[0].Class)
	out.Freeze()
	return out
}

// TestSymmetricGraphReverseEqualsForward is the claim Symmetric stands for,
// at the kernel: on a symmetric graph the reverse expansion from a node holds
// the forward expansion's distances bit for bit — full ball, bounded, and at
// the targets of the early-terminating form — under a class table with four
// different multipliers.
func TestSymmetricGraphReverseEqualsForward(t *testing.T) {
	cw := ClassWeights{0.12, 0.072, 0.045, 0.0327}
	rng := rand.New(rand.NewSource(5))
	for name, g := range map[string]*Graph{
		"urban":   GenerateUrban(DefaultUrbanConfig()),
		"highway": GenerateHighway(DefaultHighwayConfig()),
		"jitter":  smallUrban(11),
		"random":  randomUndirected(6, 300),
	} {
		if !g.Symmetric() {
			t.Fatalf("%s: generated graph is not symmetric", name)
		}
		n := g.NumNodes()
		for trial := 0; trial < 20; trial++ {
			src := NodeID(rng.Intn(n))
			bound := math.Inf(1)
			if trial%2 == 1 {
				bound = 60 + 600*rng.Float64()
			}
			fwd, rev := g.ExpandFrom(src, cw, bound), g.ExpandTo(src, cw, bound)
			for id := NodeID(0); int(id) < n; id++ {
				requireSameDist(t, name, src, id, fwd, rev)
			}
			fwd.Release()
			rev.Release()

			targets := make([]NodeID, 1+rng.Intn(40))
			for i := range targets {
				targets[i] = NodeID(rng.Intn(n))
			}
			fwd, rev = g.ExpandToMany(src, targets, cw, bound), g.ExpandToManyReverse(src, targets, cw, bound)
			for _, id := range targets {
				requireSameDist(t, name+"/many", src, id, fwd, rev)
			}
			fwd.Release()
			rev.Release()
		}
	}
}

// randomUndirected is a random symmetric multigraph: a ring (so it is
// connected) plus random chords, some of them doubled into parallel roads of
// different class and length, plus a few self-loops.
func randomUndirected(seed int64, n int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n, 6*n)
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{Lat: 53 + rng.Float64()*0.2, Lon: 8 + rng.Float64()*0.3})
	}
	class := func() RoadClass { return RoadClass(rng.Intn(NumRoadClasses)) }
	for i := 0; i < n; i++ {
		g.AddBidirectional(NodeID(i), NodeID((i+1)%n), 0, class())
		to := NodeID(rng.Intn(n))
		g.AddBidirectional(NodeID(i), to, 200+rng.Float64()*4000, class())
		if rng.Intn(4) == 0 {
			g.AddBidirectional(NodeID(i), to, 200+rng.Float64()*4000, class())
		}
		if rng.Intn(10) == 0 {
			g.AddEdge(NodeID(i), NodeID(i), 50, ClassLocal)
		}
	}
	g.Freeze()
	return g
}

func requireSameDist(t *testing.T, label string, src, id NodeID, fwd, rev Expansion) {
	t.Helper()
	f, fok := fwd.Dist(id)
	r, rok := rev.Dist(id)
	if fok != rok || math.Float64bits(f) != math.Float64bits(r) {
		t.Fatalf("%s: from %d at %d forward = %v (%v), reverse = %v (%v)", label, src, id, f, fok, r, rok)
	}
}
