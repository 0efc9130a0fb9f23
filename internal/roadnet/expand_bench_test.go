package roadnet_test

// An external test package: the scenario builder imports roadnet, so the
// benchmark that needs the real scenario graph cannot live inside it.

import (
	"testing"

	"ecocharge/internal/experiment"
	"ecocharge/internal/roadnet"
)

// BenchmarkExpandOldenburg prices the kernel where the fleet pays for it:
// the two many-target expansions of one EcoCharge cache miss (Alg. 1 lines
// 9-10) on the benchmark's own world — the Oldenburg scenario graph, one
// shard's third of the chargers as targets, the mid-traffic class table and
// the production budget R / avgUrbanSpeed. BenchmarkManyToMany's 12 × 10 km
// graph finishes a whole expansion in ~19 µs and cannot show a layout
// effect; this one settles ~5 000 of 6 461 nodes per expansion.
func BenchmarkExpandOldenburg(b *testing.B) {
	sc, err := experiment.BuildScenario("Oldenburg", 0.005, 42)
	if err != nil {
		b.Fatal(err)
	}
	g := sc.Graph
	// Rendezvous sharding hands each of three shards a pseudo-random third
	// of the inventory; every third charger has the same size and spread.
	all := sc.Env.Chargers.All()
	targets := make([]roadnet.NodeID, 0, len(all)/3+1)
	for i := 0; i < len(all); i += 3 {
		targets = append(targets, all[i].Node)
	}
	lo, hi := sc.Env.Traffic.ClassWeightTables(sc.Start, sc.Start)
	var mid roadnet.ClassWeights
	for c := range mid {
		mid[c] = (lo[c] + hi[c]) / 2
	}
	const budget = 50000 / (50.0 / 3.6) // cknn: RadiusM / avgUrbanSpeed
	anchor := g.NearestNode(g.Bounds().Center())

	for _, dir := range []struct {
		name   string
		expand func(roadnet.NodeID, []roadnet.NodeID, roadnet.ClassWeights, float64) roadnet.Expansion
	}{
		{"Forward", g.ExpandToMany},
		{"Reverse", g.ExpandToManyReverse},
	} {
		b.Run(dir.name, func(b *testing.B) {
			once := func() {
				x := dir.expand(anchor, targets, mid, budget)
				for _, t := range targets {
					x.Dist(t)
				}
				x.Release()
			}
			once() // warm the pool and the heap's backing array
			if allocs := testing.AllocsPerRun(5, once); allocs != 0 {
				b.Fatalf("%v allocs per expansion, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				once()
			}
		})
	}
}
