package cknn

import (
	"fmt"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/ec"
	"ecocharge/internal/geo"
	"ecocharge/internal/interval"
	"ecocharge/internal/roadnet"
)

// Env bundles the world every ranking method queries: the road network,
// the charger inventory, and the three Estimated Component models. Build it
// once per scenario with NewEnv; it is immutable and safe for concurrent
// readers.
type Env struct {
	Graph    *roadnet.Graph
	Chargers *charger.Set
	Solar    *ec.SolarModel
	Avail    *ec.AvailabilityModel
	Traffic  *ec.TrafficModel
	// Wind optionally adds wind-turbine production to sites with WindKW
	// capacity (the paper's RES integration names both panels and
	// turbines). Nil disables wind.
	Wind *ec.WindModel

	// MaxLKW normalizes the L component: the environment's maximum
	// effective charging level max_b min(rate_b, panel_b).
	MaxLKW float64
	// MaxDeroutSec normalizes the D component: the derouting budget in
	// seconds. Chargers costing more than this to visit are treated as
	// maximally expensive (D = 1).
	MaxDeroutSec float64

	// Faults, when non-nil, can fail individual component fetches: the
	// engine then degrades that component to its ignorance bound [0,1]
	// and tags the entry instead of erroring (the graceful-degradation
	// contract of docs/resilience.md). Assign it before the environment is
	// shared between goroutines; nil means every source always serves.
	Faults FaultPolicy

	// FullDerouting forces every ranking method back onto the full-ball
	// derouting expansions instead of the batched target-aware ones. The
	// two paths are byte-identical at the candidate nodes; this switch
	// exists so the differential suite can run the per-charger oracle
	// through unmodified methods. Assign it before the environment is
	// shared between goroutines; production leaves it false.
	FullDerouting bool
}

// Component names one Estimated Component for fault bookkeeping.
type Component uint8

// The three Estimated Components of the paper, in bitmask order.
const (
	CompL Component = iota // sustainable charging level (weather source)
	CompA                  // availability (busy-timetable source)
	CompD                  // derouting cost (traffic source)
)

// String returns the component's single-letter name.
func (c Component) String() string {
	switch c {
	case CompL:
		return "L"
	case CompA:
		return "A"
	case CompD:
		return "D"
	}
	return "?"
}

// FaultPolicy decides per fetch whether the external source backing a
// component could serve it. Implementations must be safe for concurrent
// use and pure over (component, charger, issue time) between harness
// steps: the engine may consult the same decision more than once (prune
// bound and evaluation) and the parallel filtering phase must see the
// answers the sequential oracle saw.
type FaultPolicy interface {
	// FetchOK reports whether the source backing comp served a fresh
	// estimate for the charger, for a query issued at the given time.
	FetchOK(comp Component, chargerID int64, issued time.Time) bool
}

// sourceOK is the nil-tolerant form of the policy check.
func (env *Env) sourceOK(comp Component, chargerID int64, issued time.Time) bool {
	return env.Faults == nil || env.Faults.FetchOK(comp, chargerID, issued)
}

// LForecast is the fallible form of ProductionForecast: ok is false when
// the weather source failed or served stale data, in which case the caller
// must degrade L to its ignorance bound.
func (env *Env) LForecast(c *charger.Charger, at, issued time.Time) (interval.I, bool) {
	if !env.sourceOK(CompL, c.ID, issued) {
		return interval.I{}, false
	}
	return env.ProductionForecast(c, at, issued), true
}

// AForecast is the fallible availability estimate: ok is false when the
// busy-timetable source failed the fetch.
func (env *Env) AForecast(c *charger.Charger, at, issued time.Time) (interval.I, bool) {
	if !env.sourceOK(CompA, c.ID, issued) {
		return interval.I{}, false
	}
	return env.Avail.ForecastAvailability(c.ID, c.Timetable, at, issued), true
}

// DSourceOK reports whether the traffic source could price the charger's
// derouting for an estimate issued at the given time. The road network
// itself is local, so a traffic outage degrades only the congestion band —
// the engine keeps the graph-derived ETA and widens D to [0,1].
func (env *Env) DSourceOK(chargerID int64, issued time.Time) bool {
	return env.sourceOK(CompD, chargerID, issued)
}

// EnvConfig carries the optional knobs of NewEnv.
type EnvConfig struct {
	// RadiusM is the default search radius used to derive MaxDeroutSec.
	// 0 selects 50 km, the paper's default R.
	RadiusM float64
	// Wind enables wind production for chargers with WindKW capacity.
	Wind *ec.WindModel
}

// avgUrbanSpeed is the mixed urban/arterial speed used to convert the
// radius into a derouting time budget.
const avgUrbanSpeed = 50.0 / 3.6 // m/s

// NewEnv validates and assembles an environment.
func NewEnv(g *roadnet.Graph, set *charger.Set, solar *ec.SolarModel, avail *ec.AvailabilityModel, traffic *ec.TrafficModel, cfg EnvConfig) (*Env, error) {
	if g == nil || g.NumNodes() == 0 {
		return nil, fmt.Errorf("cknn: environment needs a non-empty road network")
	}
	if set == nil {
		return nil, fmt.Errorf("cknn: environment needs a charger set")
	}
	if solar == nil || avail == nil || traffic == nil {
		return nil, fmt.Errorf("cknn: environment needs all three EC models")
	}
	env := &Env{Graph: g, Chargers: set, Solar: solar, Avail: avail, Traffic: traffic, Wind: cfg.Wind}
	for _, c := range set.All() {
		if l := effectiveKW(&c); l > env.MaxLKW {
			env.MaxLKW = l
		}
	}
	radius := cfg.RadiusM
	if radius <= 0 {
		radius = 50000
	}
	// One-way radius crossing at mixed urban speed: a charger whose visit
	// costs more than driving R is maximally penalized (D = 1).
	env.MaxDeroutSec = radius / avgUrbanSpeed
	return env, nil
}

// effectiveKW is the charging level a site can sustain from renewables
// alone: production is capped by both the installed RES capacity and the
// charger rate.
func effectiveKW(c *charger.Charger) float64 {
	if res := c.RESKW(); res < c.Rate.KW() {
		return res
	}
	return c.Rate.KW()
}

// ProductionForecast is the total renewable production interval at the
// charger at time at, for an estimate issued at issued: solar plus wind
// when the environment has a wind model and the site has turbines.
func (env *Env) ProductionForecast(c *charger.Charger, at, issued time.Time) interval.I {
	prod := env.Solar.Forecast(c.Site(), at, issued)
	if env.Wind != nil && c.WindKW > 0 {
		prod = prod.Add(env.Wind.Forecast(c.WindSite(), at, issued))
	}
	return prod
}

// ProductionTruth is the actual total renewable production in kW.
func (env *Env) ProductionTruth(c *charger.Charger, at time.Time) float64 {
	p := env.Solar.Truth(c.Site(), at)
	if env.Wind != nil && c.WindKW > 0 {
		p += env.Wind.Truth(c.WindSite(), at)
	}
	return p
}

// Query is one CkNN-EC evaluation point: the vehicle's anchor position on
// its trip, the time the estimate is issued, and the search parameters.
type Query struct {
	// Anchor is the query position (a segment anchor of the trip).
	Anchor geo.Point
	// AnchorNode is the road-network node of the anchor.
	AnchorNode roadnet.NodeID
	// ReturnNode is where the vehicle rejoins its route after charging
	// (the end of the current segment or the next segment's anchor,
	// whichever the caller selects). Invalid means "return to the anchor".
	ReturnNode roadnet.NodeID
	// Now is when the estimate is issued (forecast horizons are measured
	// from it).
	Now time.Time
	// ETABase is the arrival time at the anchor; charger ETAs add the
	// derouting travel time to it.
	ETABase time.Time
	// K is the number of chargers requested in the Offering Table.
	K int
	// RadiusM is the user-configured search radius R.
	RadiusM float64
	// Weights are the SC objective weights; zero value selects equal
	// weights.
	Weights Weights
}

// normalized fills defaults and returns the query ready for evaluation.
func (q Query) normalized() Query {
	if q.K <= 0 {
		q.K = 3
	}
	if q.RadiusM <= 0 {
		q.RadiusM = 50000
	}
	if q.Weights == (Weights{}) {
		q.Weights = EqualWeights()
	} else {
		q.Weights = q.Weights.Normalized()
	}
	if q.ETABase.IsZero() {
		q.ETABase = q.Now
	}
	if q.ReturnNode < 0 {
		q.ReturnNode = q.AnchorNode
	}
	return q
}
