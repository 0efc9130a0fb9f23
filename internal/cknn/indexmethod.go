package cknn

import (
	"ecocharge/internal/charger"
	"ecocharge/internal/geo"
	"ecocharge/internal/spatial"
)

// SpatialIndexMethod generalizes the Index-Quadtree baseline over any
// spatial.Index: candidates are the CandidateFactor·k chargers nearest the
// anchor according to the index, then ranked with the full CkNN-EC scoring.
// The CkNN literature the paper surveys (§VI.B) uses grids and R-trees for
// this retrieval step; plugging them in quantifies how little the index
// choice matters next to the candidate-set semantics.
type SpatialIndexMethod struct {
	engine Engine
	name   string
	index  spatial.Index
	// CandidateFactor scales the candidate set; values below 1 select 2.
	CandidateFactor int
}

// NewIndexGrid returns the baseline backed by a uniform grid with the
// given cell size (0 selects 1 km).
func NewIndexGrid(env *Env, cellMeters float64) *SpatialIndexMethod {
	chargers := env.Chargers.All()
	var grid *spatial.Grid
	if len(chargers) > 0 {
		pts := make([]geo.Point, len(chargers))
		for i, c := range chargers {
			pts[i] = c.P
		}
		grid = spatial.NewGrid(geo.NewBBox(pts...), cellMeters)
		for _, c := range chargers {
			grid.Insert(spatial.Item{P: c.P, ID: c.ID})
		}
	} else {
		grid = spatial.NewGrid(geo.BBox{Min: geo.Point{}, Max: geo.Point{Lat: 1, Lon: 1}}, cellMeters)
	}
	return &SpatialIndexMethod{
		engine: Engine{Env: env}, name: "Index-Grid", index: grid, CandidateFactor: 2,
	}
}

// NewIndexRTree returns the baseline backed by an STR-packed R-tree.
func NewIndexRTree(env *Env) *SpatialIndexMethod {
	chargers := env.Chargers.All()
	items := make([]spatial.Item, len(chargers))
	for i, c := range chargers {
		items[i] = spatial.Item{P: c.P, ID: c.ID}
	}
	return &SpatialIndexMethod{
		engine: Engine{Env: env}, name: "Index-RTree",
		index: spatial.NewRTree(items, 0), CandidateFactor: 2,
	}
}

// Name implements Method.
func (m *SpatialIndexMethod) Name() string { return m.name }

// Reset implements Method; the method is stateless.
func (m *SpatialIndexMethod) Reset() {}

// ConcurrentRankOK implements ConcurrentRanker; the index is immutable
// after construction and the engine is stateless.
func (m *SpatialIndexMethod) ConcurrentRankOK() {}

// SetWorkers implements WorkersConfigurable.
func (m *SpatialIndexMethod) SetWorkers(n int) { m.engine.Workers = n }

// Rank implements Method with the same candidate-bounded evaluation as
// IndexQuadtree.
func (m *SpatialIndexMethod) Rank(q Query) OfferingTable {
	q = q.normalized()
	factor := m.CandidateFactor
	if factor < 1 {
		factor = 2
	}
	neighbors := m.index.KNN(q.Anchor, factor*q.K)
	cands := make([]*charger.Charger, 0, len(neighbors))
	for _, n := range neighbors {
		if c, ok := m.engine.Env.Chargers.ByID(n.ID); ok {
			cands = append(cands, c)
		}
	}
	bound := m.engine.Env.MaxDeroutSec
	if len(cands) > 0 {
		far := geo.Distance(q.Anchor, cands[len(cands)-1].P)
		if b := 4 * far / (avgUrbanSpeed / 2); b < bound {
			bound = b
		}
	}
	d := m.engine.Env.deroutingMaps(q, bound, deroutTargets(cands, q.ReturnNode), exactBounds)
	defer d.Release()
	return OfferingTable{
		Anchor:      q.Anchor,
		GeneratedAt: q.Now,
		ETABase:     q.ETABase,
		Entries:     m.engine.rankPool(cands, d, q),
	}
}
