package roadnet

import (
	"bytes"
	"math"
	"testing"
)

// csrGraphs are the networks the CSR construction is checked on: the
// fixtures of the differential suite plus both generators at default shape.
func csrGraphs() map[string]*Graph {
	gs := diffGraphs()
	gs["urbanDefault"] = GenerateUrban(DefaultUrbanConfig())
	gs["highwayDefault"] = GenerateHighway(DefaultHighwayConfig())
	return gs
}

// requireCSRMatchesEdges holds a frozen graph's two CSR forms against the
// insertion-ordered edge list they were built from: the offset arrays are
// well-formed, every edge appears exactly once per direction, and OutEdges /
// InEdges visit a node's edges in the order AddEdge saw them — the order the
// [][]int32 adjacency this layout replaced used to give, which heap ties and
// predecessor choices depend on.
func requireCSRMatchesEdges(t *testing.T, g *Graph) {
	t.Helper()
	n, m := g.NumNodes(), g.NumEdges()
	for dir, c := range map[string]*csr{"fwd": &g.fwd, "rev": &g.rev} {
		if len(c.off) != n+1 || c.off[0] != 0 || int(c.off[n]) != m || len(c.arcs) != m {
			t.Fatalf("%s: off has %d entries spanning [%d,%d], %d arcs; want %d entries spanning [0,%d], %d arcs",
				dir, len(c.off), c.off[0], c.off[n], len(c.arcs), n+1, m, m)
		}
		for i := 0; i < n; i++ {
			if c.off[i] > c.off[i+1] {
				t.Fatalf("%s: off decreases at node %d", dir, i)
			}
		}
	}
	want := refAdj(g)
	for id := NodeID(0); int(id) < n; id++ {
		var out, in []Edge
		g.OutEdges(id, func(e Edge) { out = append(out, e) })
		g.InEdges(id, func(e Edge) { in = append(in, e) })
		requireSameEdges(t, "OutEdges", id, out, want.out[id])
		requireSameEdges(t, "InEdges", id, in, want.in[id])
	}
}

func requireSameEdges(t *testing.T, what string, id NodeID, got, want []Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s(%d) visits %d edges, want %d", what, id, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s(%d) edge %d = %+v, want %+v (insertion order)", what, id, i, got[i], want[i])
		}
	}
}

func TestCSRMatchesEdgeList(t *testing.T) {
	for name, g := range csrGraphs() {
		t.Run(name, func(t *testing.T) { requireCSRMatchesEdges(t, g) })
	}
}

// TestCSRSurvivesCSVRoundTrip writes a generated network through io.go and
// reads it back: the reloaded graph's rows must be well-formed and visit the
// same neighbours in the same order as the original's (lengths are written
// to one decimal, so they are compared at that precision).
func TestCSRSurvivesCSVRoundTrip(t *testing.T) {
	orig := smallUrban(3)
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	requireCSRMatchesEdges(t, back)
	for id := NodeID(0); int(id) < orig.NumNodes(); id++ {
		for dir, visit := range map[string]func(*Graph, NodeID, func(Edge)){
			"OutEdges": (*Graph).OutEdges, "InEdges": (*Graph).InEdges,
		} {
			var a, b []Edge
			visit(orig, id, func(e Edge) { a = append(a, e) })
			visit(back, id, func(e Edge) { b = append(b, e) })
			if len(a) != len(b) {
				t.Fatalf("%s(%d): %d edges before the round trip, %d after", dir, id, len(a), len(b))
			}
			for i := range a {
				if a[i].From != b[i].From || a[i].To != b[i].To || a[i].Class != b[i].Class ||
					math.Abs(a[i].Length-b[i].Length) > 0.05+1e-9 {
					t.Fatalf("%s(%d) edge %d: %+v before the round trip, %+v after", dir, id, i, a[i], b[i])
				}
			}
		}
	}
}

// TestNegativeClassWeightPanics pins the hoisted negative-weight check: the
// searches validate the class table once, before the first relaxation.
func TestNegativeClassWeightPanics(t *testing.T) {
	g := tinyGraph()
	bad := DistanceWeight
	bad[ClassLocal] = -1
	inf := math.Inf(1)
	for name, search := range map[string]func(){
		"ExpandFrom":          func() { g.ExpandFrom(0, bad, inf).Release() },
		"ExpandTo":            func() { g.ExpandTo(0, bad, inf).Release() },
		"ExpandToMany":        func() { g.ExpandToMany(0, []NodeID{4}, bad, inf).Release() },
		"ExpandToManyReverse": func() { g.ExpandToManyReverse(0, []NodeID{4}, bad, inf).Release() },
		"ShortestPath":        func() { g.ShortestPath(0, 4, bad) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != "roadnet: negative edge weight" {
					t.Fatalf("recovered %v, want the negative-edge-weight panic", r)
				}
			}()
			search()
			t.Fatal("search under a negative class weight returned")
		})
	}
}
