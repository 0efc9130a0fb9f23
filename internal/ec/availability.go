package ec

import (
	"math"
	"time"

	"ecocharge/internal/interval"
)

// Timetable is a Google-Maps-popular-times-style busy histogram: a busy
// fraction in [0,1] per (weekday, hour). Index by [weekday][hour] with
// time.Weekday semantics (Sunday == 0).
type Timetable [7][24]float64

// BusyAt interpolates the busy fraction at time t (local semantics of t are
// the caller's concern; the experiments use UTC throughout). A nil table is
// the all-zero table: +0 at every t.
func (tt *Timetable) BusyAt(t time.Time) float64 {
	if tt == nil {
		return 0
	}
	day := int(t.Weekday())
	hour := t.Hour()
	frac := float64(t.Minute())/60 + float64(t.Second())/3600
	cur := tt[day][hour]
	nd, nh := day, hour+1
	if nh == 24 {
		nh = 0
		nd = (nd + 1) % 7
	}
	next := tt[nd][nh]
	return cur*(1-frac) + next*frac
}

// Slot returns the busy fraction of weekday day at hour, 0 on a nil table:
// the codecs read a charger's table through it.
func (tt *Timetable) Slot(day, hour int) float64 {
	if tt == nil {
		return 0
	}
	return tt[day][hour]
}

// AvailabilityModel estimates charger availability A: the probability that
// a plug is free at the ETA. Ground truth is a per-charger timetable
// (generated once, deterministically) plus short-term fluctuation; the
// estimate is an interval widening with the horizon, because the paper's A
// component comes from third-party busy timetables that are themselves
// statistical.
type AvailabilityModel struct {
	Seed int64
	// FluctuationAmp in [0,1] is the amplitude of the short-term deviation
	// from the timetable. Default 0.15.
	FluctuationAmp float64
}

// NewAvailabilityModel returns a model with default fluctuation.
func NewAvailabilityModel(seed int64) *AvailabilityModel {
	return &AvailabilityModel{Seed: seed, FluctuationAmp: 0.15}
}

func (m *AvailabilityModel) amp() float64 {
	if m.FluctuationAmp < 0 || m.FluctuationAmp > 1 {
		return 0.15
	}
	return m.FluctuationAmp
}

// GenerateTimetable builds the deterministic busy histogram for a charger.
// Weekdays carry commute peaks (8–9 h and 17–19 h), weekends a broad midday
// plateau; every charger gets its own perturbation so rankings are not
// degenerate.
func (m *AvailabilityModel) GenerateTimetable(chargerID int64) Timetable {
	var tt Timetable
	for d := 0; d < 7; d++ {
		weekend := d == 0 || d == 6
		for h := 0; h < 24; h++ {
			base := baseBusy(h, weekend)
			jitter := (hashNoise(uint64(m.Seed), uint64(chargerID), uint64(d*100+h)) - 0.5) * 0.3
			v := base + jitter
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			tt[d][h] = v
		}
	}
	return tt
}

func baseBusy(hour int, weekend bool) float64 {
	if weekend {
		// Broad midday plateau centered on 14h.
		return 0.55 * math.Exp(-sq(float64(hour)-14)/18)
	}
	morning := 0.7 * math.Exp(-sq(float64(hour)-8.5)/2.5)
	evening := 0.8 * math.Exp(-sq(float64(hour)-18)/4.5)
	lunch := 0.35 * math.Exp(-sq(float64(hour)-12.5)/2)
	v := morning + evening + lunch
	if v > 1 {
		v = 1
	}
	return v
}

func sq(x float64) float64 { return x * x }

// TruthBusy returns the actual busy fraction of the charger at time t:
// timetable plus the short-term fluctuation process.
func (m *AvailabilityModel) TruthBusy(chargerID int64, tt *Timetable, t time.Time) float64 {
	busy := tt.BusyAt(t)
	fl := (smoothNoise(uint64(m.Seed)^0xabcd, uint64(chargerID), float64(t.Unix())/3600) - 0.5) * 2 * m.amp()
	v := busy + fl
	if v < 0 {
		v = 0
	} else if v > 1 {
		v = 1
	}
	return v
}

// availabilityError is the interval half-width of the busy estimate at the
// given horizon: timetables are weekly statistics, so even a nowcast keeps
// a floor of uncertainty, and the error saturates quickly compared to
// weather (crowding an hour ahead is already near the statistical floor).
func availabilityError(horizon time.Duration) float64 {
	h := horizon.Hours()
	if h < 0 {
		h = 0
	}
	return math.Min(0.05+0.03*h, 0.20)
}

// ForecastBusy returns the interval estimate of the busy fraction at t for
// an estimate issued at issuedAt, clamped to [0,1] and containing the truth.
func (m *AvailabilityModel) ForecastBusy(chargerID int64, tt *Timetable, t, issuedAt time.Time) interval.I {
	truth := m.TruthBusy(chargerID, tt, t)
	err := availabilityError(t.Sub(issuedAt))
	return interval.New(truth-err, truth+err).Clamp(0, 1)
}

// ForecastAvailability returns the interval estimate of availability
// A = 1 − busy at t. Larger is better, matching how the SC formula
// aggregates it.
func (m *AvailabilityModel) ForecastAvailability(chargerID int64, tt *Timetable, t, issuedAt time.Time) interval.I {
	return m.ForecastBusy(chargerID, tt, t, issuedAt).Complement()
}
