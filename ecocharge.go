// Package ecocharge is the public facade of the EcoCharge framework, a Go
// reproduction of "A Framework for Continuous kNN Ranking of EV Chargers
// with Estimated Components" (ICDE 2024).
//
// EcoCharge ranks EV chargers along a scheduled trip by a Sustainability
// Score combining three interval-valued Estimated Components — the clean
// charging level L (weather/solar forecast), the availability A (busy
// timetables) and the derouting cost D (traffic-scaled network detour) —
// via a Continuous k-Nearest-Neighbor query with Estimated Components
// (CkNN-EC).
//
// The facade re-exports the library's primary types so downstream users
// interact with a single import path:
//
//	env, _ := ecocharge.NewEnv(graph, chargers, solar, avail, traffic, ecocharge.EnvConfig{})
//	method := ecocharge.NewEcoCharge(env, ecocharge.Options{RadiusM: 50000, ReuseDistM: 5000})
//	table := method.Rank(ecocharge.Query{...})
//
// The implementation lives in the internal packages: internal/cknn (the
// core algorithm), internal/ec (the Estimated Component models),
// internal/roadnet, internal/spatial, internal/charger,
// internal/trajectory, internal/eis (the information server) and
// internal/experiment (the paper's evaluation harness). See DESIGN.md for
// the full system inventory and EXPERIMENTS.md for the reproduced figures.
package ecocharge

import (
	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/ec"
	"ecocharge/internal/geo"
	"ecocharge/internal/interval"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/trajectory"
)

// Geographic primitives.
type (
	// Point is a WGS84 location.
	Point = geo.Point
	// BBox is an axis-aligned bounding box.
	BBox = geo.BBox
)

// Interval arithmetic backing the Estimated Components.
type Interval = interval.I

// Road network.
type (
	// Graph is the directed weighted road network G = (V, E).
	Graph = roadnet.Graph
	// NodeID identifies a graph node.
	NodeID = roadnet.NodeID
	// UrbanConfig parameterizes the urban network generator.
	UrbanConfig = roadnet.UrbanConfig
	// HighwayConfig parameterizes the sparse highway generator.
	HighwayConfig = roadnet.HighwayConfig
)

// Estimated Component models.
type (
	// SolarModel forecasts clean production (the L component).
	SolarModel = ec.SolarModel
	// AvailabilityModel forecasts charger availability (the A component).
	AvailabilityModel = ec.AvailabilityModel
	// TrafficModel forecasts congestion (the D component).
	TrafficModel = ec.TrafficModel
	// Timetable is a busy histogram per (weekday, hour).
	Timetable = ec.Timetable
)

// Chargers.
type (
	// Charger is one EV charging point.
	Charger = charger.Charger
	// ChargerSet is an indexed charger collection.
	ChargerSet = charger.Set
	// RateClass is the charger's electrical rate category.
	RateClass = charger.RateClass
)

// Trips.
type (
	// Trip is a scheduled trip on the road network.
	Trip = trajectory.Trip
	// Segment is one partitioned path segment of a trip.
	Segment = trajectory.Segment
)

// Core CkNN-EC query machinery.
type (
	// Env bundles the world a query runs against.
	Env = cknn.Env
	// EnvConfig carries NewEnv's optional knobs.
	EnvConfig = cknn.EnvConfig
	// Query is one CkNN-EC evaluation point.
	Query = cknn.Query
	// Weights are the SC objective weights (w1, w2, w3).
	Weights = cknn.Weights
	// Components are the normalized ECs of one charger at one query.
	Components = cknn.Components
	// Entry is one Offering Table row.
	Entry = cknn.Entry
	// OfferingTable is the ranked result for one path segment.
	OfferingTable = cknn.OfferingTable
	// Method is a ranking strategy (BruteForce, IndexQuadtree, Random,
	// EcoCharge).
	Method = cknn.Method
	// Options configure the EcoCharge method (R, Q, TTL).
	Options = cknn.EcoChargeOptions
	// TripOptions configure a continuous trip evaluation.
	TripOptions = cknn.TripOptions
	// SegmentResult pairs a segment with its Offering Table.
	SegmentResult = cknn.SegmentResult
	// SplitPoint marks where the kNN result set changes along a trip.
	SplitPoint = cknn.SplitPoint
)

// NewEnv assembles a query environment. See cknn.NewEnv.
func NewEnv(g *Graph, set *ChargerSet, solar *SolarModel, avail *AvailabilityModel, traffic *TrafficModel, cfg EnvConfig) (*Env, error) {
	return cknn.NewEnv(g, set, solar, avail, traffic, cfg)
}

// NewEcoCharge returns the paper's method: radius-bounded CkNN-EC with the
// dynamic R/Q cache.
func NewEcoCharge(env *Env, opts Options) *cknn.EcoCharge { return cknn.NewEcoCharge(env, opts) }

// NewBruteForce returns the exhaustive optimal baseline.
func NewBruteForce(env *Env) *cknn.BruteForce { return cknn.NewBruteForce(env) }

// NewIndexQuadtree returns the spatial-index baseline.
func NewIndexQuadtree(env *Env) *cknn.IndexQuadtree { return cknn.NewIndexQuadtree(env) }

// NewRandom returns the random baseline.
func NewRandom(env *Env, seed int64) *cknn.Random { return cknn.NewRandom(env, seed) }

// EqualWeights is the default w1=w2=w3=1/3 configuration.
func EqualWeights() Weights { return cknn.EqualWeights() }

// RunTrip evaluates a method over every segment of a trip.
func RunTrip(env *Env, m Method, trip Trip, opts TripOptions) []SegmentResult {
	return cknn.RunTrip(env, m, trip, opts)
}

// SplitList computes the positions along a trip where the kNN set changes.
func SplitList(env *Env, m Method, trip Trip, opts TripOptions) []SplitPoint {
	return cknn.SplitList(env, m, trip, opts)
}

// GenerateUrban builds a synthetic urban road network.
func GenerateUrban(cfg UrbanConfig) *Graph { return roadnet.GenerateUrban(cfg) }

// GenerateHighway builds a synthetic sparse highway network.
func GenerateHighway(cfg HighwayConfig) *Graph { return roadnet.GenerateHighway(cfg) }

// GenerateChargers places a synthetic charger inventory on a road network.
func GenerateChargers(g *Graph, avail *AvailabilityModel, cfg charger.GenConfig) (*ChargerSet, error) {
	return charger.Generate(g, avail, cfg)
}

// ChargerGenConfig parameterizes GenerateChargers.
type ChargerGenConfig = charger.GenConfig

// NewSolarModel returns the weather/solar EC model.
func NewSolarModel(seed int64) *SolarModel { return ec.NewSolarModel(seed) }

// NewAvailabilityModel returns the busy-timetable EC model.
func NewAvailabilityModel(seed int64) *AvailabilityModel { return ec.NewAvailabilityModel(seed) }

// NewTrafficModel returns the congestion EC model.
func NewTrafficModel(seed int64) *TrafficModel { return ec.NewTrafficModel(seed) }

// GenerateTrips builds scheduled trips on a road network.
func GenerateTrips(g *Graph, cfg trajectory.GenConfig) ([]Trip, error) {
	return trajectory.Generate(g, cfg)
}

// TripGenConfig parameterizes GenerateTrips.
type TripGenConfig = trajectory.GenConfig

// RefineOptions tune split-point bisection refinement.
type RefineOptions = cknn.RefineOptions

// RefineSplitPoints sharpens a trip's split list to sub-segment resolution.
func RefineSplitPoints(env *Env, m Method, trip Trip, opts TripOptions, ropts RefineOptions) []SplitPoint {
	return cknn.RefineSplitPoints(env, m, trip, opts, ropts)
}

// WindModel forecasts wind-turbine production (the second RES of §I).
type WindModel = ec.WindModel

// NewWindModel returns the wind EC model; attach it via EnvConfig.Wind.
func NewWindModel(seed int64) *WindModel { return ec.NewWindModel(seed) }

// DetourPlan is the route change of committing to a recommendation.
type DetourPlan = cknn.DetourPlan

// PlanDetour builds the route change for committing to an Offering Table
// entry at a trip segment (paper §IV.A).
func PlanDetour(env *Env, trip Trip, seg Segment, entry Entry) (DetourPlan, error) {
	return cknn.PlanDetour(env, trip, seg, entry)
}
