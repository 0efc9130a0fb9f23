package roadnet

import (
	"strings"
	"testing"

	"ecocharge/internal/geo"
)

// ReadCSV must accept CRLF line endings (Windows-exported extracts).
func TestReadCSVCRLF(t *testing.T) {
	data := "id,lat,lon\r\n0,53.0,8.0\r\n1,53.1,8.1\r\n\r\nfrom,to,length_m,class\r\n0,1,100.0,0\r\n"
	g, err := ReadCSV(strings.NewReader(data))
	if err != nil {
		t.Fatalf("CRLF input rejected: %v", err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("parsed %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
}

// Self-loop edges must not break shortest paths (they are never useful but
// real extracts contain them).
func TestSelfLoopEdge(t *testing.T) {
	g := NewGraph(2, 3)
	a := g.AddNode(geo.Point{Lat: 53, Lon: 8})
	b := g.AddNode(geo.Point{Lat: 53, Lon: 8.01})
	g.AddEdge(a, a, 50, ClassLocal) // self loop
	g.AddBidirectional(a, b, 700, ClassLocal)
	g.Freeze()
	p, ok := g.ShortestPath(a, b, DistanceWeight)
	if !ok || p.Weight != 700 {
		t.Fatalf("self loop disturbed routing: %+v %v", p, ok)
	}
}

// Parallel edges: the cheaper one wins.
func TestParallelEdges(t *testing.T) {
	g := NewGraph(2, 2)
	a := g.AddNode(geo.Point{Lat: 53, Lon: 8})
	b := g.AddNode(geo.Point{Lat: 53, Lon: 8.01})
	g.AddEdge(a, b, 900, ClassLocal)
	g.AddEdge(a, b, 400, ClassArterial)
	g.Freeze()
	if p, ok := g.ShortestPath(a, b, DistanceWeight); !ok || p.Weight != 400 {
		t.Fatalf("parallel edge: %v %v, want 400", p.Weight, ok)
	}
}

// NodesWithin on an anchored radius of zero returns at most the co-located
// node.
func TestNodesWithinZeroRadius(t *testing.T) {
	g := tinyGraph()
	got := g.NodesWithin(g.Node(3).P, 0)
	for _, id := range got {
		if geo.Distance(g.Node(id).P, g.Node(3).P) > 0 {
			t.Fatalf("zero radius returned distant node %d", id)
		}
	}
}

// LengthMeters of a single-node path is zero, and of an empty path too.
func TestLengthMetersDegenerate(t *testing.T) {
	g := tinyGraph()
	if l := g.LengthMeters(Path{Nodes: []NodeID{2}}); l != 0 {
		t.Errorf("single-node length %v", l)
	}
	if l := g.LengthMeters(Path{}); l != 0 {
		t.Errorf("empty length %v", l)
	}
}
