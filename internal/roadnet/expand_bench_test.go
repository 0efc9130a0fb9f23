package roadnet_test

// An external test package: the scenario builder imports roadnet, so the
// benchmark that needs the real scenario graph cannot live inside it.

import (
	"math"
	"testing"

	"ecocharge/internal/experiment"
	"ecocharge/internal/obs"
	"ecocharge/internal/roadnet"
)

// BenchmarkExpandOldenburg prices the kernel where the fleet pays for it:
// the one search of an EcoCharge cache miss (Alg. 1 lines 9-10), which the
// gateway runs for all its shards — from wherever the driver is to every
// charger node of the benchmark's own world, the Oldenburg scenario graph,
// under the mid-traffic class table and the production budget R /
// avgUrbanSpeed (an hour: anchors near the edge of the map exhaust their ball
// before the far chargers settle, ~3 100 of 6 461 nodes per expansion on
// average, on a ring of eight buckets of which five are in use). Forward and
// Reverse are the two legs of a trip segment, FullBall the exhaustive
// ExpandFrom the oracles and brute force run, and ForwardHeap is Forward with
// the ring declined: the same binary, the same inputs, the other frontier.
func BenchmarkExpandOldenburg(b *testing.B) {
	const budget = 50000 / (50.0 / 3.6) // cknn: RadiusM / avgUrbanSpeed
	benchmarkExpand(b, "Oldenburg", budget)
}

// BenchmarkExpandCalifornia is the same search on the 936-node California
// profile, whose 48 km rural arcs over 50 m urban ones make a ring of 512
// buckets. The production budget would end the search inside the first lap
// (79 nodes), so this one is unbounded: labels tens of thousands of seconds
// deep, several laps of the ring, mostly empty buckets to step over.
func BenchmarkExpandCalifornia(b *testing.B) { benchmarkExpand(b, "California", math.Inf(1)) }

func benchmarkExpand(b *testing.B, profile string, budget float64) {
	sc, err := experiment.BuildScenario(profile, 0.005, 42)
	if err != nil {
		b.Fatal(err)
	}
	g := sc.Graph
	all := sc.Env.Chargers.All()
	targets := make([]roadnet.NodeID, len(all))
	for i, c := range all {
		targets[i] = c.Node
	}
	lo, hi := sc.Env.Traffic.ClassWeightTables(sc.Start, sc.Start)
	var mid roadnet.ClassWeights
	for c := range mid {
		mid[c] = (lo[c] + hi[c]) / 2
	}
	// Drivers are all over the map: a 6 × 5 grid of anchors and the centre.
	box := g.Bounds()
	anchors := []roadnet.NodeID{g.NearestNode(box.Center())}
	for i := 0; i < 6; i++ {
		for j := 0; j < 5; j++ {
			p := box.Min
			p.Lat += (box.Max.Lat - box.Min.Lat) * (float64(j) + 0.5) / 5
			p.Lon += (box.Max.Lon - box.Min.Lon) * (float64(i) + 0.5) / 6
			anchors = append(anchors, g.NearestNode(p))
		}
	}
	settled := obs.Default().Counter("roadnet_many_nodes_settled_total")
	fallbacks := obs.Default().Counter("roadnet_heap_fallback_total")

	type expandFunc func(roadnet.NodeID, []roadnet.NodeID, roadnet.ClassWeights, float64) roadnet.Expansion
	fullBall := func(src roadnet.NodeID, _ []roadnet.NodeID, cw roadnet.ClassWeights, bound float64) roadnet.Expansion {
		return g.ExpandFrom(src, cw, bound)
	}
	for _, tc := range []struct {
		name   string
		expand expandFunc
		heap   bool
	}{
		{"Forward", g.ExpandToMany, false},
		{"Reverse", g.ExpandToManyReverse, false},
		{"FullBall", fullBall, false},
		{"ForwardHeap", g.ExpandToMany, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			if tc.heap {
				roadnet.HeapOnly(b)
			}
			next := 0
			once := func() {
				x := tc.expand(anchors[next%len(anchors)], targets, mid, budget)
				next++
				for _, t := range targets {
					x.Dist(t)
				}
				x.Release()
			}
			once() // warm the pool and the frontier's backing arrays
			if allocs := testing.AllocsPerRun(len(anchors), once); allocs != 0 {
				b.Fatalf("%v allocs per expansion, want 0", allocs)
			}
			b.ReportAllocs()
			next = 0
			settledBefore, fallbacksBefore := settled.Value(), fallbacks.Value()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				once()
			}
			b.StopTimer()
			// ExpandFrom is not a many-target search and is not counted.
			if n := settled.Value() - settledBefore; n > 0 {
				b.ReportMetric(float64(n)/float64(b.N), "settled/op")
			}
			if n := fallbacks.Value() - fallbacksBefore; !tc.heap && n > 0 {
				b.Fatalf("the ring declined %d of %d expansions of the benchmark's own world", n, b.N)
			}
		})
	}
}
