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
