package ec

import (
	"math"
	"time"

	"ecocharge/internal/interval"
	"ecocharge/internal/roadnet"
)

// TrafficModel estimates road congestion as a travel-cost multiplier per
// road class and time of day. The derouting component D queries it to turn
// geometric shortest paths into lower/upper travel-cost estimates: real
// GIS services report a "current to worst case" travel time band, which is
// exactly the interval the paper's D consumes.
type TrafficModel struct {
	Seed int64
	// PeakSeverity ≥ 0 scales rush-hour slowdowns; 1.0 is the default
	// profile (up to ~1.8× on arterials at peak).
	PeakSeverity float64
}

// NewTrafficModel returns a model with the default peak severity.
func NewTrafficModel(seed int64) *TrafficModel {
	return &TrafficModel{Seed: seed, PeakSeverity: 1.0}
}

func (m *TrafficModel) severity() float64 {
	if m.PeakSeverity <= 0 {
		return 1.0
	}
	return m.PeakSeverity
}

// baseProfile returns the congestion multiplier ≥ 1 for a road class at the
// given hour-of-week under average conditions.
func (m *TrafficModel) baseProfile(class roadnet.RoadClass, t time.Time) float64 {
	hour := float64(t.Hour()) + float64(t.Minute())/60
	weekend := t.Weekday() == time.Saturday || t.Weekday() == time.Sunday
	var peak float64
	if weekend {
		peak = 0.25 * math.Exp(-sq(hour-15)/10)
	} else {
		peak = 0.8*math.Exp(-sq(hour-8.5)/2) + 0.9*math.Exp(-sq(hour-17.5)/3)
	}
	classFactor := 1.0
	switch class {
	case roadnet.ClassLocal:
		classFactor = 0.6
	case roadnet.ClassArterial:
		classFactor = 1.0
	case roadnet.ClassHighway:
		classFactor = 0.8
	case roadnet.ClassMotorway:
		classFactor = 0.7
	}
	return 1 + peak*classFactor*m.severity()
}

// TruthMultiplier returns the actual congestion multiplier for the class at
// t, including the day-specific realization noise.
func (m *TrafficModel) TruthMultiplier(class roadnet.RoadClass, t time.Time) float64 {
	base := m.baseProfile(class, t)
	n := smoothNoise(uint64(m.Seed)^trafficSalt, uint64(class), float64(t.Unix())/3600)
	// Noise multiplies the congested share only: free-flow night traffic
	// does not fluctuate much.
	return 1 + (base-1)*(0.7+0.6*n)
}

// trafficSalt decorrelates the traffic noise stream from weather and
// availability noise derived from the same experiment seed.
const trafficSalt uint64 = 0x77a1f1c0ffee

// trafficError returns the relative half-width of the congestion estimate
// at the given horizon. Live traffic is accurate now and decays toward a
// historical-profile floor.
func trafficError(horizon time.Duration) float64 {
	h := horizon.Hours()
	if h < 0 {
		h = 0
	}
	return math.Min(0.03+0.05*h, 0.25)
}

// ForecastMultiplier returns the interval congestion multiplier for class
// at time t, for an estimate issued at issuedAt. Bounds never drop below 1
// (traffic cannot beat free flow in this model).
func (m *TrafficModel) ForecastMultiplier(class roadnet.RoadClass, t, issuedAt time.Time) interval.I {
	truth := m.TruthMultiplier(class, t)
	err := trafficError(t.Sub(issuedAt)) * truth
	lo := truth - err
	if lo < 1 {
		lo = 1
	}
	hi := truth + err
	if hi < lo {
		hi = lo
	}
	return interval.New(lo, hi)
}

// ClassWeightTables returns lower/upper-bound travel-time weight tables for
// the road network at time t (estimate issued at issuedAt): one seconds-per-
// meter multiplier per road class, ready for the flat expansion kernel. The
// per-edge cost edge.Length * table[class] equals the congested travel time
// under the forecast band, so plugging the tables into ExpandFrom/ExpandTo
// yields the D_min / D_max derouting costs of Algorithm 1 lines 9–10.
func (m *TrafficModel) ClassWeightTables(t, issuedAt time.Time) (lower, upper roadnet.ClassWeights) {
	for c := roadnet.RoadClass(0); c < roadnet.RoadClass(roadnet.NumRoadClasses); c++ {
		iv := m.ForecastMultiplier(c, t, issuedAt)
		lower[c] = iv.Min / c.FreeFlowSpeed()
		upper[c] = iv.Max / c.FreeFlowSpeed()
	}
	return lower, upper
}

// TruthClassWeights returns the travel-time weight table under the actual
// congestion at time t. Experiments use it to score chosen chargers against
// ground truth rather than forecasts.
func (m *TrafficModel) TruthClassWeights(t time.Time) roadnet.ClassWeights {
	var cw roadnet.ClassWeights
	for c := roadnet.RoadClass(0); c < roadnet.RoadClass(roadnet.NumRoadClasses); c++ {
		cw[c] = m.TruthMultiplier(c, t) / c.FreeFlowSpeed()
	}
	return cw
}
