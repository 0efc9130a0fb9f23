package ec

import (
	"math"
	"time"

	"ecocharge/internal/geo"
	"ecocharge/internal/interval"
)

// SolarModel predicts the clean power available at a charger site. It
// combines a deterministic clear-sky irradiance curve (solar elevation from
// latitude, day-of-year and hour) with a stochastic-but-reproducible cloud
// cover process and horizon-dependent forecast uncertainty.
//
// Truth(site, t) is the actual production; Forecast(site, t, issuedAt)
// returns an interval that always contains the truth and whose width grows
// with t − issuedAt following the accuracy schedule of the paper's weather
// sources.
type SolarModel struct {
	// Seed selects the weather realization. Experiments vary it across
	// repetitions.
	Seed int64
	// CloudVariability in [0,1] scales how strongly clouds attenuate
	// production; 0 is permanent clear sky. Default 0.6.
	CloudVariability float64
}

// NewSolarModel returns a model with the default variability.
func NewSolarModel(seed int64) *SolarModel {
	return &SolarModel{Seed: seed, CloudVariability: 0.6}
}

// Site describes a production site for the solar model.
type Site struct {
	ID         int64
	P          geo.Point
	CapacityKW float64 // peak panel capacity
}

// ClearSkyFactor returns the fraction of peak capacity a site produces
// under a cloudless sky at time t: sin of solar elevation, clamped to [0, 1].
// The declination uses the standard Cooper approximation; longitudes shift
// local solar time.
func ClearSkyFactor(p geo.Point, t time.Time) float64 {
	ut := t.UTC()
	doy := float64(ut.YearDay())
	decl := 23.45 * math.Pi / 180 * math.Sin(2*math.Pi*(284+doy)/365)
	lat := p.Lat * math.Pi / 180
	// Local solar hour from UTC plus longitude offset.
	hour := float64(ut.Hour()) + float64(ut.Minute())/60 + p.Lon/15
	hourAngle := (hour - 12) * 15 * math.Pi / 180
	sinElev := math.Sin(lat)*math.Sin(decl) + math.Cos(lat)*math.Cos(decl)*math.Cos(hourAngle)
	if sinElev < 0 {
		return 0
	}
	// With the sun overhead the two products can sum to 1 + 2⁻⁵², and a site
	// would forecast more than its nameplate: Forecast's clamp, and the
	// ranking's prune bound after it, take capacity as the ceiling.
	if sinElev > 1 {
		return 1
	}
	return sinElev
}

// cloudCover returns the true cloud attenuation in [0, CloudVariability]
// for the site's weather cell at time t.
func (m *SolarModel) cloudCover(site Site, t time.Time) float64 {
	// Weather cells of ~0.1 degree: nearby chargers share weather.
	cellLat := int64(math.Floor(site.P.Lat * 10))
	cellLon := int64(math.Floor(site.P.Lon * 10))
	cell := uint64(cellLat)<<32 ^ uint64(uint32(cellLon))
	hours := float64(t.Unix()) / 3600
	return smoothNoise(uint64(m.Seed), cell, hours) * m.variability()
}

func (m *SolarModel) variability() float64 {
	if m.CloudVariability <= 0 || m.CloudVariability > 1 {
		return 0.6
	}
	return m.CloudVariability
}

// Truth returns the actual production in kW at time t.
func (m *SolarModel) Truth(site Site, t time.Time) float64 {
	return site.CapacityKW * ClearSkyFactor(site.P, t) * (1 - m.cloudCover(site, t))
}

// ForecastError returns the relative half-width of the cloud forecast at
// the given horizon, following the accuracy figures the paper cites:
// ~95.5 % accurate within 12 h (±4.5 %), decaying to ~90 % at 72 h
// (±10 %), then saturating at ±15 % beyond three days.
func ForecastError(horizon time.Duration) float64 {
	h := horizon.Hours()
	switch {
	case h <= 0:
		return 0.005 // nowcast: still not perfect instrumentation
	case h <= 12:
		return 0.045 * h / 12 // grows to 4.5% at 12h
	case h <= 72:
		return 0.045 + (0.10-0.045)*(h-12)/60
	default:
		return 0.15
	}
}

// Forecast returns the interval estimate of production at target time t for
// a forecast issued at issuedAt. The interval is clamped to the physically
// possible [0, capacity × clear-sky] range and always contains Truth.
func (m *SolarModel) Forecast(site Site, t, issuedAt time.Time) interval.I {
	// The clear-sky curve is evaluated once: Truth's product in Truth's
	// order, so the bits are Truth's.
	maxPossible := site.CapacityKW * ClearSkyFactor(site.P, t)
	if maxPossible <= 0 {
		return interval.Exact(0)
	}
	truth := maxPossible * (1 - m.cloudCover(site, t))
	err := ForecastError(t.Sub(issuedAt)) * site.CapacityKW
	return interval.New(truth-err, truth+err).Clamp(0, maxPossible)
}

// DaylightHours reports the approximate sunrise-to-sunset span at p on the
// date of t. Exposed because availability timetables and the example
// programs align behaviour with daylight.
func DaylightHours(p geo.Point, t time.Time) (from, to float64) {
	ut := t.UTC()
	doy := float64(ut.YearDay())
	decl := 23.45 * math.Pi / 180 * math.Sin(2*math.Pi*(284+doy)/365)
	lat := p.Lat * math.Pi / 180
	cosH := -math.Tan(lat) * math.Tan(decl)
	if cosH <= -1 {
		return 0, 24 // polar day
	}
	if cosH >= 1 {
		return 12, 12 // polar night
	}
	h := math.Acos(cosH) * 180 / math.Pi / 15 // half-day length in hours
	solarNoon := 12 - p.Lon/15
	return solarNoon - h, solarNoon + h
}
