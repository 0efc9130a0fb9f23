// Package charger models the EV charging points B of the paper: their
// location on the road network, AC/DC rate class, attached renewable
// capacity, and busy timetable. It also generates the synthetic
// PlugShare-style inventory and the CDGS-style 15-minute solar production
// series the evaluation consumes (see DESIGN.md substitution table).
package charger

import (
	"fmt"
	"math/rand"
	"time"

	"ecocharge/internal/ec"
	"ecocharge/internal/geo"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/spatial"
)

// RateClass is the charger's electrical rate category.
type RateClass uint8

// Common public-charging rate classes.
const (
	RateAC37  RateClass = iota // 3.7 kW single-phase AC
	RateAC11                   // 11 kW three-phase AC
	RateAC22                   // 22 kW three-phase AC
	RateDC50                   // 50 kW DC
	RateDC150                  // 150 kW DC fast
	numRateClasses
)

// KW returns the nominal rate in kilowatts.
func (r RateClass) KW() float64 {
	switch r {
	case RateAC37:
		return 3.7
	case RateAC11:
		return 11
	case RateAC22:
		return 22
	case RateDC50:
		return 50
	case RateDC150:
		return 150
	}
	return 11
}

// String implements fmt.Stringer.
func (r RateClass) String() string {
	switch r {
	case RateAC37:
		return "AC 3.7kW"
	case RateAC11:
		return "AC 11kW"
	case RateAC22:
		return "AC 22kW"
	case RateDC50:
		return "DC 50kW"
	case RateDC150:
		return "DC 150kW"
	}
	return fmt.Sprintf("rate(%d)", uint8(r))
}

// Charger is one EV charging point b ∈ B.
type Charger struct {
	ID        int64
	P         geo.Point
	Node      roadnet.NodeID // nearest road-network node
	Rate      RateClass
	PanelKW   float64 // attached (or net-metered) solar capacity
	WindKW    float64 // attached (or net-metered) wind nameplate capacity
	Plugs     int     // number of plugs at the site
	Timetable ec.Timetable
}

// Site converts the charger to the solar model's site descriptor.
func (c *Charger) Site() ec.Site {
	return ec.Site{ID: c.ID, P: c.P, CapacityKW: c.PanelKW}
}

// WindSite converts the charger to the wind model's site descriptor.
func (c *Charger) WindSite() ec.Site {
	return ec.Site{ID: c.ID, P: c.P, CapacityKW: c.WindKW}
}

// RESKW is the total renewable nameplate capacity at the site.
func (c *Charger) RESKW() float64 { return c.PanelKW + c.WindKW }

// Set is an immutable collection of chargers with a spatial index. Build it
// with NewSet; queries are safe for concurrent use.
type Set struct {
	chargers []Charger
	byID     map[int64]int
	index    *spatial.Quadtree
	maxPanel float64
}

// NewSet indexes the given chargers. Charger IDs must be unique; duplicate
// IDs return an error because downstream ranking keys on them.
func NewSet(chargers []Charger) (*Set, error) {
	s := &Set{
		chargers: append([]Charger(nil), chargers...),
		byID:     make(map[int64]int, len(chargers)),
	}
	if len(chargers) > 0 {
		pts := make([]geo.Point, len(chargers))
		for i, c := range chargers {
			pts[i] = c.P
		}
		s.index = spatial.NewQuadtree(geo.NewBBox(pts...), 0)
	}
	for i, c := range s.chargers {
		if _, dup := s.byID[c.ID]; dup {
			return nil, fmt.Errorf("charger: duplicate ID %d", c.ID)
		}
		s.byID[c.ID] = i
		s.index.Insert(spatial.Item{P: c.P, ID: c.ID})
		if res := c.RESKW(); res > s.maxPanel {
			s.maxPanel = res
		}
	}
	return s, nil
}

// Len reports |B|.
func (s *Set) Len() int { return len(s.chargers) }

// All returns the underlying slice; callers must not mutate it.
func (s *Set) All() []Charger { return s.chargers }

// ByID returns the charger with the given ID.
func (s *Set) ByID(id int64) (*Charger, bool) {
	i, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	return &s.chargers[i], true
}

// Within returns chargers within radius meters of p, closest first.
func (s *Set) Within(p geo.Point, radius float64) []*Charger {
	if s.index == nil {
		return nil
	}
	ns := s.index.Within(p, radius)
	out := make([]*Charger, len(ns))
	for i, n := range ns {
		out[i] = &s.chargers[s.byID[n.ID]]
	}
	return out
}

// Candidates is the storage of a radius query that its caller keeps from
// query to query (WithinInto): the answer lives in it and is good until the
// next query into it, and a query allocates nothing once the storage has held
// its largest answer.
type Candidates struct {
	near []spatial.Item
	out  []*Charger
}

// WithinInto returns, in c's storage, the set Within returns, in the index's
// own order: the same on every call, unrelated to distance. A ranking reads
// its candidates as a set (cknn.Rank's order is total), so it does not pay
// for their distances or for a sort.
func (s *Set) WithinInto(c *Candidates, p geo.Point, radius float64) []*Charger {
	c.near, c.out = c.near[:0], c.out[:0]
	if s.index == nil {
		return c.out
	}
	c.near = s.index.AppendItemsWithin(c.near, p, radius)
	for _, n := range c.near {
		c.out = append(c.out, &s.chargers[s.byID[n.ID]])
	}
	return c.out
}

// KNearest returns the k chargers nearest to p by geodesic distance.
func (s *Set) KNearest(p geo.Point, k int) []*Charger {
	if s.index == nil {
		return nil
	}
	ns := s.index.KNN(p, k)
	out := make([]*Charger, len(ns))
	for i, n := range ns {
		out[i] = &s.chargers[s.byID[n.ID]]
	}
	return out
}

// MaxRESKW is the environment's maximum renewable capacity at a single
// site (solar + wind), one normalizer candidate for the L component.
func (s *Set) MaxRESKW() float64 { return s.maxPanel }

// GenConfig parameterizes the synthetic charger inventory generator.
type GenConfig struct {
	N    int   // number of chargers
	Seed int64 // placement and sizing seed
	// ClusterFrac of chargers are placed in POI clusters; the rest
	// uniformly over the network. Default 0.5.
	ClusterFrac float64
	// Clusters is the number of POI clusters. Default 8.
	Clusters int
}

// Generate places N chargers on nodes of the road network, assigns rate
// classes with a realistic mix, solar capacities, plug counts and busy
// timetables, and returns the indexed set.
func Generate(g *roadnet.Graph, avail *ec.AvailabilityModel, cfg GenConfig) (*Set, error) {
	if cfg.N <= 0 {
		return NewSet(nil)
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("charger: cannot generate on empty graph")
	}
	if cfg.ClusterFrac < 0 || cfg.ClusterFrac > 1 {
		cfg.ClusterFrac = 0.5
	}
	if cfg.Clusters <= 0 {
		cfg.Clusters = 8
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	centers := make([]roadnet.NodeID, cfg.Clusters)
	for i := range centers {
		centers[i] = roadnet.NodeID(rng.Intn(g.NumNodes()))
	}
	bounds := g.Bounds()
	clusterRadius := bounds.WidthMeters() * 0.05

	chargers := make([]Charger, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		var node roadnet.NodeID
		clustered := rng.Float64() < cfg.ClusterFrac
		if clustered {
			center := centers[rng.Intn(len(centers))]
			near := g.NodesWithin(g.Node(center).P, clusterRadius)
			if len(near) > 0 {
				node = near[rng.Intn(len(near))]
			} else {
				node = center
			}
		} else {
			node = roadnet.NodeID(rng.Intn(g.NumNodes()))
		}
		rate := pickRate(rng)
		c := Charger{
			ID:      int64(i + 1),
			P:       g.Node(node).P,
			Node:    node,
			Rate:    rate,
			PanelKW: pickPanel(rng, rate, clustered),
			Plugs:   1 + rng.Intn(4),
		}
		// A minority of standalone sites are net-metered against wind
		// turbines instead of (or in addition to) solar.
		if !clustered && rng.Float64() < 0.12 {
			c.WindKW = float64(int(rate.KW()*(0.5+rng.Float64())*10)) / 10
		}
		c.Timetable = avail.GenerateTimetable(c.ID)
		chargers = append(chargers, c)
	}
	return NewSet(chargers)
}

// pickRate draws a rate class with a public-infrastructure-like mix:
// mostly 11/22 kW AC, some DC.
func pickRate(rng *rand.Rand) RateClass {
	v := rng.Float64()
	switch {
	case v < 0.10:
		return RateAC37
	case v < 0.45:
		return RateAC11
	case v < 0.80:
		return RateAC22
	case v < 0.95:
		return RateDC50
	default:
		return RateDC150
	}
}

// pickPanel sizes the attached solar array. Dense POI-cluster sites carry
// small rooftop arrays (urban land is scarce), while standalone sites host
// the large carport/farm installations — so the highest sustainable
// charging levels are usually *not* at the geometrically nearest downtown
// chargers, which is precisely what separates CkNN-EC from distance-only
// retrieval. A site is occasionally grid-only (zero panels).
func pickPanel(rng *rand.Rand, rate RateClass, clustered bool) float64 {
	if rng.Float64() < 0.15 {
		return 0 // no renewables at this site
	}
	var base float64
	if clustered {
		base = rate.KW() * (0.15 + rng.Float64()*0.45)
	} else {
		base = rate.KW() * (0.75 + rng.Float64()*1.0)
	}
	return float64(int(base*10)) / 10
}

// ProductionSample is one CDGS-style record: production of a site in a
// 15-minute interval.
type ProductionSample struct {
	ChargerID int64
	Start     time.Time
	KW        float64 // average power over the interval
}

// ProductionSeries generates the 15-minute production series for the
// charger between from and to using the solar model, the synthetic
// equivalent of the California Distributed Generation Statistics feed.
func ProductionSeries(m *ec.SolarModel, c *Charger, from, to time.Time) []ProductionSample {
	if !from.Before(to) {
		return nil
	}
	site := c.Site()
	var out []ProductionSample
	for t := from; t.Before(to); t = t.Add(15 * time.Minute) {
		out = append(out, ProductionSample{
			ChargerID: c.ID,
			Start:     t,
			KW:        m.Truth(site, t.Add(7*time.Minute+30*time.Second)),
		})
	}
	return out
}
