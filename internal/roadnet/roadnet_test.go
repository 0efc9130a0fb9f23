package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"ecocharge/internal/geo"
)

// tinyGraph builds the 6-node test fixture:
//
//	0 --1km-- 1 --1km-- 2
//	|                   |
//	3km                 1km
//	|                   |
//	3 --1km-- 4 --1km-- 5
func tinyGraph() *Graph {
	g := NewGraph(6, 14)
	pts := []geo.Point{
		{Lat: 53.02, Lon: 8.00}, {Lat: 53.02, Lon: 8.015}, {Lat: 53.02, Lon: 8.03},
		{Lat: 53.00, Lon: 8.00}, {Lat: 53.00, Lon: 8.015}, {Lat: 53.00, Lon: 8.03},
	}
	for _, p := range pts {
		g.AddNode(p)
	}
	g.AddBidirectional(0, 1, 1000, ClassLocal)
	g.AddBidirectional(1, 2, 1000, ClassLocal)
	g.AddBidirectional(0, 3, 3000, ClassLocal)
	g.AddBidirectional(2, 5, 1000, ClassLocal)
	g.AddBidirectional(3, 4, 1000, ClassLocal)
	g.AddBidirectional(4, 5, 1000, ClassLocal)
	g.Freeze()
	return g
}

func TestShortestPathBasic(t *testing.T) {
	g := tinyGraph()
	p, ok := g.ShortestPath(0, 4, DistanceWeight)
	if !ok {
		t.Fatal("no path found")
	}
	// 0->1->2->5->4 is 4000; 0->3->4 is 4000 too. Both optimal.
	if p.Weight != 4000 {
		t.Fatalf("weight = %v, want 4000", p.Weight)
	}
	if p.Nodes[0] != 0 || p.Nodes[len(p.Nodes)-1] != 4 {
		t.Fatalf("endpoints wrong: %v", p.Nodes)
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := tinyGraph()
	p, ok := g.ShortestPath(2, 2, DistanceWeight)
	if !ok || p.Weight != 0 || len(p.Nodes) != 1 {
		t.Fatalf("self path = %+v, ok=%v", p, ok)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := NewGraph(2, 0)
	g.AddNode(geo.Point{Lat: 53, Lon: 8})
	g.AddNode(geo.Point{Lat: 53.1, Lon: 8.1})
	g.Freeze()
	if _, ok := g.ShortestPath(0, 1, DistanceWeight); ok {
		t.Fatal("path found in disconnected graph")
	}
}

func TestDirectedEdgesRespected(t *testing.T) {
	g := NewGraph(2, 1)
	a := g.AddNode(geo.Point{Lat: 53, Lon: 8})
	b := g.AddNode(geo.Point{Lat: 53, Lon: 8.01})
	g.AddEdge(a, b, 500, ClassLocal) // one-way
	g.Freeze()
	if _, ok := g.ShortestPath(a, b, DistanceWeight); !ok {
		t.Fatal("forward path missing")
	}
	if _, ok := g.ShortestPath(b, a, DistanceWeight); ok {
		t.Fatal("one-way edge traversed backwards")
	}
}

func TestExpandFromBound(t *testing.T) {
	g := tinyGraph()
	x := g.ExpandFrom(0, DistanceWeight, 2000)
	defer x.Release()
	if _, ok := x.Dist(4); ok {
		t.Error("node beyond bound included")
	}
	if got, _ := x.Dist(2); got != 2000 {
		t.Errorf("dist to 2 = %v, want 2000", got)
	}
	if got, ok := x.Dist(0); !ok || got != 0 {
		t.Errorf("dist to self = %v, %v", got, ok)
	}
}

// shortest is the weight of the shortest src→dst path in meters, +Inf when
// there is none.
func shortest(g *Graph, src, dst NodeID) float64 {
	p, ok := g.ShortestPath(src, dst, DistanceWeight)
	if !ok {
		return math.Inf(1)
	}
	return p.Weight
}

func TestDistancesToMatchesForward(t *testing.T) {
	g := tinyGraph()
	back := g.ExpandTo(4, DistanceWeight, math.Inf(1))
	defer back.Release()
	for n := NodeID(0); n < 6; n++ {
		want := shortest(g, n, 4)
		got, ok := back.Dist(n)
		if !ok {
			t.Fatalf("node %d missing from ExpandTo", n)
		}
		if got != want {
			t.Errorf("ExpandTo(4).Dist(%d) = %v, forward = %v", n, got, want)
		}
	}
}

// Dijkstra sanity: triangle inequality over the shortest-path metric and
// prefix optimality of returned paths.
func TestShortestPathMetricProperties(t *testing.T) {
	g := GenerateUrban(UrbanConfig{
		Origin: geo.Point{Lat: 53.0, Lon: 8.0}, WidthKM: 4, HeightKM: 4,
		SpacingM: 500, RemoveFrac: 0.05, JitterFrac: 0.2, ArterialEach: 3, Seed: 4,
	})
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 25; trial++ {
		a := NodeID(r.Intn(g.NumNodes()))
		b := NodeID(r.Intn(g.NumNodes()))
		c := NodeID(r.Intn(g.NumNodes()))
		ab, bc, ac := shortest(g, a, b), shortest(g, b, c), shortest(g, a, c)
		if ac > ab+bc+1e-6 {
			t.Fatalf("triangle inequality violated: d(%d,%d)=%v > %v+%v", a, c, ac, ab, bc)
		}
		// Prefix optimality: each prefix of an optimal path is optimal.
		p, ok := g.ShortestPath(a, b, DistanceWeight)
		if !ok || len(p.Nodes) < 3 {
			continue
		}
		mid := p.Nodes[len(p.Nodes)/2]
		var prefix float64
		for i := 1; i <= len(p.Nodes)/2; i++ {
			prefix += shortest(g, p.Nodes[i-1], p.Nodes[i])
		}
		if direct := shortest(g, a, mid); prefix < direct-1e-6 {
			t.Fatalf("prefix shorter than shortest: %v < %v", prefix, direct)
		}
	}
}

func TestNearestNodeAndWithin(t *testing.T) {
	g := tinyGraph()
	p := geo.Point{Lat: 53.021, Lon: 8.001}
	if got := g.NearestNode(p); got != 0 {
		t.Errorf("NearestNode = %d, want 0", got)
	}
	near := g.NodesWithin(g.Node(0).P, 1200)
	found := map[NodeID]bool{}
	for _, id := range near {
		found[id] = true
	}
	if !found[0] || !found[1] {
		t.Errorf("NodesWithin(1200m) = %v, want to include 0 and 1", near)
	}
	if found[2] {
		t.Errorf("node 2 (~2km away) included in 1.2km radius")
	}
}

func TestEdgeWeights(t *testing.T) {
	e := Edge{Length: 1000, Class: ClassMotorway}
	if DistanceWeight.CostOf(e) != 1000 {
		t.Error("DistanceWeight wrong")
	}
	wantT := 1000 / (110.0 / 3.6)
	if got := TimeWeight(e); math.Abs(got-wantT) > 1e-9 {
		t.Errorf("TimeWeight = %v, want %v", got, wantT)
	}
}

func TestGraphMutationAfterFreezePanics(t *testing.T) {
	g := tinyGraph()
	defer func() {
		if recover() == nil {
			t.Fatal("AddNode after Freeze did not panic")
		}
	}()
	g.AddNode(geo.Point{})
}

func TestAddEdgeInvalidNodePanics(t *testing.T) {
	g := NewGraph(1, 1)
	g.AddNode(geo.Point{Lat: 53, Lon: 8})
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge with bad node did not panic")
		}
	}()
	g.AddEdge(0, 5, 100, ClassLocal)
}

func TestQueryBeforeFreezePanics(t *testing.T) {
	g := NewGraph(1, 0)
	g.AddNode(geo.Point{Lat: 53, Lon: 8})
	defer func() {
		if recover() == nil {
			t.Fatal("query before Freeze did not panic")
		}
	}()
	g.OutEdges(0, func(Edge) {})
}

func TestGenerateUrbanConnected(t *testing.T) {
	g := GenerateUrban(UrbanConfig{
		Origin: geo.Point{Lat: 53.0, Lon: 8.0}, WidthKM: 8, HeightKM: 6,
		SpacingM: 500, RemoveFrac: 0.1, JitterFrac: 0.25, ArterialEach: 5, Seed: 5,
	})
	if g.NumNodes() < 100 {
		t.Fatalf("urban graph too small: %d nodes", g.NumNodes())
	}
	if size := g.ConnectedComponentSize(0); size < g.NumNodes()*9/10 {
		t.Errorf("urban graph fragmented: component %d of %d", size, g.NumNodes())
	}
}

func TestGenerateUrbanDeterministic(t *testing.T) {
	cfg := DefaultUrbanConfig()
	cfg.WidthKM, cfg.HeightKM = 4, 4
	a := GenerateUrban(cfg)
	b := GenerateUrban(cfg)
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatal("generator not deterministic in size")
	}
	for i := 0; i < a.NumNodes(); i += 17 {
		if a.Node(NodeID(i)).P != b.Node(NodeID(i)).P {
			t.Fatalf("node %d differs between runs", i)
		}
	}
}

func TestGenerateHighwayConnected(t *testing.T) {
	g := GenerateHighway(DefaultHighwayConfig())
	if g.NumNodes() < 500 {
		t.Fatalf("highway graph too small: %d", g.NumNodes())
	}
	if size := g.ConnectedComponentSize(0); size != g.NumNodes() {
		t.Errorf("highway graph not fully connected: %d of %d", size, g.NumNodes())
	}
	// It must contain motorway edges and local edges.
	var motorway, local bool
	for _, e := range g.Edges() {
		switch e.Class {
		case ClassMotorway:
			motorway = true
		case ClassLocal:
			local = true
		}
	}
	if !motorway || !local {
		t.Error("highway graph missing expected road classes")
	}
}

func TestRoadClassString(t *testing.T) {
	if ClassMotorway.String() != "motorway" || ClassLocal.String() != "local" {
		t.Error("RoadClass String wrong")
	}
	if RoadClass(250).String() == "" {
		t.Error("unknown class must still format")
	}
}

func TestPathHelpers(t *testing.T) {
	g := tinyGraph()
	p, _ := g.ShortestPath(0, 2, DistanceWeight)
	pts := g.Points(p)
	if len(pts) != len(p.Nodes) {
		t.Fatal("Points length mismatch")
	}
	if l := g.LengthMeters(p); l <= 0 {
		t.Errorf("LengthMeters = %v", l)
	}
}

// TestPathWeightIsShortestPathsWeight: priced step by step, every path
// ShortestPath returns weighs its Weight to the bit, under the length metric
// and under a time table; a parallel arc prices its step at the cheaper one;
// a sequence that is not a walk of the graph has no weight.
func TestPathWeightIsShortestPathsWeight(t *testing.T) {
	g := GenerateUrban(UrbanConfig{
		Origin: geo.Point{Lat: 53.0, Lon: 8.0}, WidthKM: 4, HeightKM: 4,
		SpacingM: 500, RemoveFrac: 0.05, JitterFrac: 0.2, ArterialEach: 3, Seed: 4,
	})
	r := rand.New(rand.NewSource(12))
	for _, cw := range []ClassWeights{DistanceWeight, TimeClassWeights()} {
		for trial := 0; trial < 200; trial++ {
			a, b := NodeID(r.Intn(g.NumNodes())), NodeID(r.Intn(g.NumNodes()))
			p, ok := g.ShortestPath(a, b, cw)
			if !ok {
				continue
			}
			if w, ok := g.PathWeight(p.Nodes, cw); !ok || math.Float64bits(w) != math.Float64bits(p.Weight) {
				t.Fatalf("%d→%d under %v: PathWeight %v (%v), ShortestPath %v", a, b, cw, w, ok, p.Weight)
			}
		}
	}

	par := NewGraph(3, 3)
	x := par.AddNode(geo.Point{Lat: 53, Lon: 8})
	y := par.AddNode(geo.Point{Lat: 53, Lon: 8.01})
	z := par.AddNode(geo.Point{Lat: 53, Lon: 8.02})
	par.AddEdge(x, y, 900, ClassLocal)
	par.AddEdge(x, y, 400, ClassArterial)
	par.AddEdge(y, z, 0.1, ClassLocal)
	par.Freeze()
	for _, tc := range []struct {
		nodes []NodeID
		want  float64
		ok    bool
	}{
		{[]NodeID{x, y, z}, 400.1, true},
		{[]NodeID{y}, 0, true},
		{nil, 0, false},
		{[]NodeID{x, z}, 0, false},    // not an arc
		{[]NodeID{y, x}, 0, false},    // an arc the other way only
		{[]NodeID{x, y, 3}, 0, false}, // a node the graph does not have
		{[]NodeID{-1, x}, 0, false},
	} {
		if w, ok := par.PathWeight(tc.nodes, DistanceWeight); ok != tc.ok || w != tc.want {
			t.Errorf("PathWeight(%v) = %v, %v; want %v, %v", tc.nodes, w, ok, tc.want, tc.ok)
		}
	}
}

func BenchmarkDijkstraUrban(b *testing.B) {
	g := GenerateUrban(DefaultUrbanConfig())
	b.ReportAllocs()
	r := rand.New(rand.NewSource(1))
	srcs := make([]NodeID, 64)
	dsts := make([]NodeID, 64)
	for i := range srcs {
		srcs[i] = NodeID(r.Intn(g.NumNodes()))
		dsts[i] = NodeID(r.Intn(g.NumNodes()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShortestPath(srcs[i%64], dsts[i%64], DistanceWeight)
	}
}

func BenchmarkBoundedDijkstra5km(b *testing.B) {
	g := GenerateUrban(DefaultUrbanConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ExpandFrom(NodeID(i%g.NumNodes()), DistanceWeight, 5000).Release()
	}
}
