package roadnet

import (
	"bytes"
	"strings"
	"testing"

	"ecocharge/internal/geo"
)

func TestGraphCSVRoundTrip(t *testing.T) {
	orig := GenerateUrban(UrbanConfig{
		Origin: geo.Point{Lat: 53.0, Lon: 8.0}, WidthKM: 4, HeightKM: 3,
		SpacingM: 500, RemoveFrac: 0.1, JitterFrac: 0.2, ArterialEach: 3, Seed: 9,
	})
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.NumNodes() != orig.NumNodes() || back.NumEdges() != orig.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d",
			back.NumNodes(), back.NumEdges(), orig.NumNodes(), orig.NumEdges())
	}
	for i := 0; i < orig.NumNodes(); i += 7 {
		op, bp := orig.Node(NodeID(i)).P, back.Node(NodeID(i)).P
		if geo.Distance(op, bp) > 0.2 {
			t.Fatalf("node %d drifted %.2f m", i, geo.Distance(op, bp))
		}
	}
	for i, oe := range orig.Edges() {
		be := back.Edges()[i]
		if oe.From != be.From || oe.To != be.To || oe.Class != be.Class {
			t.Fatalf("edge %d mismatch: %+v vs %+v", i, oe, be)
		}
	}
	// Shortest paths must agree (within rounding of the 0.1 m lengths).
	for _, pair := range [][2]NodeID{{0, NodeID(orig.NumNodes() - 1)}, {3, 17}} {
		a, b := shortest(orig, pair[0], pair[1]), shortest(back, pair[0], pair[1])
		if diff := a - b; diff > 1 || diff < -1 {
			t.Fatalf("shortest path %v differs: %.1f vs %.1f", pair, a, b)
		}
	}
}

func TestReadCSVMalformed(t *testing.T) {
	valid := "id,lat,lon\n0,53.0,8.0\n1,53.1,8.1\n\nfrom,to,length_m,class\n0,1,100.0,0\n"
	if _, err := ReadCSV(strings.NewReader(valid)); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	cases := map[string]string{
		"bad nodes header": "nope,lat,lon\n",
		"missing edges":    "id,lat,lon\n0,53.0,8.0\n",
		"id out of order":  "id,lat,lon\n1,53.0,8.0\n\nfrom,to,length_m,class\n",
		"bad lat":          "id,lat,lon\n0,abc,8.0\n\nfrom,to,length_m,class\n",
		"lat out of range": "id,lat,lon\n0,99,8.0\n\nfrom,to,length_m,class\n",
		"edge bad node":    "id,lat,lon\n0,53.0,8.0\n\nfrom,to,length_m,class\n0,5,100,0\n",
		"edge bad class":   "id,lat,lon\n0,53.0,8.0\n1,53.1,8.1\n\nfrom,to,length_m,class\n0,1,100,9\n",
		"edge neg length":  "id,lat,lon\n0,53.0,8.0\n1,53.1,8.1\n\nfrom,to,length_m,class\n0,1,-5,0\n",
		"edge bad from":    "id,lat,lon\n0,53.0,8.0\n\nfrom,to,length_m,class\nxx,0,100,0\n",
		"empty":            "",
	}
	for name, data := range cases {
		if _, err := ReadCSV(strings.NewReader(data)); err == nil {
			t.Errorf("%s: malformed input accepted", name)
		}
	}
}

func TestReadCSVEmptyGraphSections(t *testing.T) {
	// Headers only: a legal zero-node, zero-edge graph.
	data := "id,lat,lon\nfrom,to,length_m,class\n"
	g, err := ReadCSV(strings.NewReader(data))
	if err != nil {
		t.Fatalf("headers-only graph rejected: %v", err)
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
}
