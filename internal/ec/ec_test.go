package ec

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"ecocharge/internal/geo"
	"ecocharge/internal/interval"
	"ecocharge/internal/roadnet"
)

var (
	nicosia = geo.Point{Lat: 35.17, Lon: 33.36}
	// A summer weekday noon and midnight, UTC.
	noon     = time.Date(2024, 6, 18, 10, 0, 0, 0, time.UTC) // ~local noon at 33°E
	midnight = time.Date(2024, 6, 18, 22, 0, 0, 0, time.UTC)
	site     = Site{ID: 7, P: nicosia, CapacityKW: 50}
)

func TestHashNoiseRangeAndDeterminism(t *testing.T) {
	f := func(a, b uint64) bool {
		v := hashNoise(a, b)
		return v >= 0 && v < 1 && v == hashNoise(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if hashNoise(1, 2) == hashNoise(2, 1) {
		t.Error("hashNoise should depend on key order")
	}
}

func TestSmoothNoiseContinuity(t *testing.T) {
	// Consecutive samples 1 minute apart must differ by a small amount.
	for h := 0.0; h < 48; h += 0.93 {
		a := smoothNoise(1, 2, h)
		b := smoothNoise(1, 2, h+1.0/60)
		if math.Abs(a-b) > 0.06 {
			t.Fatalf("noise jump %.3f at t=%.2f", math.Abs(a-b), h)
		}
	}
}

func TestClearSkyFactor(t *testing.T) {
	day := ClearSkyFactor(nicosia, noon)
	night := ClearSkyFactor(nicosia, midnight)
	if day < 0.7 {
		t.Errorf("noon clear-sky factor = %.3f, want high", day)
	}
	if night != 0 {
		t.Errorf("midnight clear-sky factor = %.3f, want 0", night)
	}
	// Winter noon is lower than summer noon at mid latitudes.
	winterNoon := time.Date(2024, 12, 18, 10, 0, 0, 0, time.UTC)
	if w := ClearSkyFactor(nicosia, winterNoon); w >= day {
		t.Errorf("winter noon %.3f not below summer noon %.3f", w, day)
	}
}

// TestClearSkyFactorAtMostOne: with the sun overhead — latitude equal to the
// day's declination, solar noon — sin² + cos² of one angle may round to
// 1 + 2⁻⁵², and a site would then forecast more than its nameplate. Forecast's
// clamp and the ranking's prune bound both take capacity as the ceiling.
func TestClearSkyFactorAtMostOne(t *testing.T) {
	atCeiling := 0
	for day := 0; day < 366; day++ {
		at := time.Date(2024, 1, 1, 12, 0, 0, 0, time.UTC).AddDate(0, 0, day)
		decl := 23.45 * math.Sin(2*math.Pi*(284+float64(at.YearDay()))/365)
		for _, lat := range []float64{decl, math.Nextafter(decl, 90), math.Nextafter(decl, -90)} {
			f := ClearSkyFactor(geo.Point{Lat: lat}, at)
			if f > 1 {
				t.Errorf("clear-sky factor %v at latitude %v on %s", f, lat, at.Format("2 Jan"))
			}
			if f == 1 {
				atCeiling++
			}
		}
	}
	if atCeiling == 0 {
		t.Error("no day of the year reaches the ceiling: the scan misses the overhead sun")
	}
}

func TestSolarTruthBounds(t *testing.T) {
	m := NewSolarModel(1)
	for h := 0; h < 24; h++ {
		tm := time.Date(2024, 6, 18, h, 0, 0, 0, time.UTC)
		v := m.Truth(site, tm)
		max := site.CapacityKW * ClearSkyFactor(site.P, tm)
		if v < 0 || v > max+1e-9 {
			t.Fatalf("truth %v outside [0, %v] at hour %d", v, max, h)
		}
	}
}

func TestSolarForecastContainsTruth(t *testing.T) {
	m := NewSolarModel(3)
	for _, horizon := range []time.Duration{0, time.Hour, 6 * time.Hour, 24 * time.Hour, 100 * time.Hour} {
		target := noon.Add(horizon)
		iv := m.Forecast(site, target, noon)
		truth := m.Truth(site, target)
		if !iv.Contains(truth) {
			t.Errorf("horizon %v: forecast %v does not contain truth %.3f", horizon, iv, truth)
		}
		if iv.Min < 0 {
			t.Errorf("forecast lower bound negative: %v", iv)
		}
	}
}

func TestSolarForecastWidthGrowsWithHorizon(t *testing.T) {
	m := NewSolarModel(3)
	// Compare widths at the same target time with different issue times, so
	// the clear-sky envelope is identical and only horizon differs.
	target := noon
	wNear := m.Forecast(site, target, target.Add(-time.Hour)).Width()
	wFar := m.Forecast(site, target, target.Add(-48*time.Hour)).Width()
	if wFar < wNear {
		t.Errorf("forecast width shrank with horizon: near=%v far=%v", wNear, wFar)
	}
}

func TestForecastErrorSchedule(t *testing.T) {
	if e := ForecastError(6 * time.Hour); e <= 0 || e > 0.045 {
		t.Errorf("6h error = %v", e)
	}
	if e12, e72 := ForecastError(12*time.Hour), ForecastError(72*time.Hour); e72 <= e12 {
		t.Errorf("error must grow: 12h=%v 72h=%v", e12, e72)
	}
	if e := ForecastError(1000 * time.Hour); e != 0.15 {
		t.Errorf("saturated error = %v, want 0.15", e)
	}
	if e := ForecastError(-time.Hour); e != 0.005 {
		t.Errorf("negative horizon error = %v, want nowcast floor", e)
	}
}

// TestSolarForecastBitsOfTwoCallFormula holds Forecast, which evaluates the
// clear-sky curve once, to the formula it had when it evaluated it twice —
// the interval around Truth, clamped to capacity × clear sky — bit for bit,
// over sites × target times × horizons: day, night, the hours around sunrise
// and sunset, and the breakpoints of the error schedule.
func TestSolarForecastBitsOfTwoCallFormula(t *testing.T) {
	twoCalls := func(m *SolarModel, site Site, at, issuedAt time.Time) interval.I {
		truth := m.Truth(site, at)
		maxPossible := site.CapacityKW * ClearSkyFactor(site.P, at)
		if maxPossible <= 0 {
			return interval.Exact(0)
		}
		err := ForecastError(at.Sub(issuedAt)) * site.CapacityKW
		return interval.New(truth-err, truth+err).Clamp(0, maxPossible)
	}
	sites := []Site{
		site,
		{ID: 1, P: geo.Point{Lat: 53.14, Lon: 8.21}, CapacityKW: 11.5},
		{ID: 2, P: geo.Point{Lat: -33.9, Lon: 151.2}, CapacityKW: 150},
		{ID: 3, P: geo.Point{Lat: 69.6, Lon: 18.9}, CapacityKW: 22}, // polar day in June
		{ID: 4, P: nicosia, CapacityKW: 0},
	}
	horizons := []time.Duration{-time.Hour, 0, 90 * time.Minute, 12 * time.Hour, 72 * time.Hour, 73 * time.Hour}
	day, night := 0, 0
	for _, m := range []*SolarModel{NewSolarModel(3), {Seed: 9, CloudVariability: 1}} {
		for _, s := range sites {
			start := time.Date(2024, 6, 18, 0, 0, 0, 0, time.UTC)
			for at := start; at.Before(start.Add(24 * time.Hour)); at = at.Add(7 * time.Minute) {
				for _, h := range horizons {
					got, want := m.Forecast(s, at, at.Add(-h)), twoCalls(m, s, at, at.Add(-h))
					if math.Float64bits(got.Min) != math.Float64bits(want.Min) || math.Float64bits(got.Max) != math.Float64bits(want.Max) {
						t.Fatalf("site %d at %v, horizon %v: forecast %v, the two-call formula gives %v", s.ID, at, h, got, want)
					}
					if want.Max > 0 {
						day++
					} else {
						night++
					}
				}
			}
		}
	}
	if day == 0 || night == 0 {
		t.Fatalf("the grid has %d daylight and %d night forecasts; it must have both", day, night)
	}
}

func TestSolarNightIsZero(t *testing.T) {
	m := NewSolarModel(5)
	iv := m.Forecast(site, midnight, midnight.Add(-2*time.Hour))
	if iv.Min != 0 || iv.Max != 0 {
		t.Errorf("night forecast = %v, want exactly 0", iv)
	}
}

func TestDaylightHours(t *testing.T) {
	from, to := DaylightHours(nicosia, noon)
	if to-from < 12 || to-from > 16 {
		t.Errorf("summer daylight at 35N = %.1f h, want 12-16", to-from)
	}
	wFrom, wTo := DaylightHours(nicosia, time.Date(2024, 12, 18, 12, 0, 0, 0, time.UTC))
	if wTo-wFrom >= to-from {
		t.Error("winter day not shorter than summer day")
	}
}

func TestTimetableBusyAtInterpolates(t *testing.T) {
	var tt Timetable
	tt[1][10] = 0.2 // Monday 10:00
	tt[1][11] = 0.8
	mon1030 := time.Date(2024, 6, 17, 10, 30, 0, 0, time.UTC) // a Monday
	if got := tt.BusyAt(mon1030); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("interpolated busy = %v, want 0.5", got)
	}
	// Wrap across midnight into the next day.
	tt[1][23] = 1.0
	tt[2][0] = 0.0
	mon2330 := time.Date(2024, 6, 17, 23, 30, 0, 0, time.UTC)
	if got := tt.BusyAt(mon2330); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("midnight wrap busy = %v, want 0.5", got)
	}
}

func TestGenerateTimetableShape(t *testing.T) {
	m := NewAvailabilityModel(1)
	tt := m.GenerateTimetable(42)
	for d := 0; d < 7; d++ {
		for h := 0; h < 24; h++ {
			if tt[d][h] < 0 || tt[d][h] > 1 {
				t.Fatalf("busy[%d][%d] = %v out of range", d, h, tt[d][h])
			}
		}
	}
	// Weekday evening peak must exceed weekday 3am, on average across chargers.
	var evening, night float64
	for id := int64(0); id < 50; id++ {
		x := m.GenerateTimetable(id)
		evening += x[2][18]
		night += x[2][3]
	}
	if evening <= night {
		t.Errorf("evening busy %.2f not above 3am busy %.2f", evening/50, night/50)
	}
	// Deterministic per charger, distinct across chargers.
	if m.GenerateTimetable(42) != tt {
		t.Error("timetable generation not deterministic")
	}
	if m.GenerateTimetable(43) == tt {
		t.Error("different chargers share identical timetable")
	}
}

func TestAvailabilityForecastContainsTruth(t *testing.T) {
	m := NewAvailabilityModel(9)
	tt := m.GenerateTimetable(5)
	for _, horizon := range []time.Duration{0, 30 * time.Minute, 4 * time.Hour} {
		target := noon.Add(horizon)
		iv := m.ForecastBusy(5, &tt, target, noon)
		truth := m.TruthBusy(5, &tt, target)
		if !iv.Contains(truth) {
			t.Errorf("horizon %v: busy forecast %v missing truth %.3f", horizon, iv, truth)
		}
		av := m.ForecastAvailability(5, &tt, target, noon)
		if math.Abs(av.Min-(1-iv.Max)) > 1e-12 || math.Abs(av.Max-(1-iv.Min)) > 1e-12 {
			t.Errorf("availability not complement of busy: %v vs %v", av, iv)
		}
	}
}

func TestAvailabilityErrorSaturates(t *testing.T) {
	if availabilityError(0) < 0.05 {
		t.Error("nowcast floor missing")
	}
	if availabilityError(100*time.Hour) != 0.20 {
		t.Errorf("saturation = %v", availabilityError(100*time.Hour))
	}
	if availabilityError(-time.Hour) != availabilityError(0) {
		t.Error("negative horizon should clamp to 0")
	}
}

func TestTrafficMultiplierPeaks(t *testing.T) {
	m := NewTrafficModel(2)
	rush := time.Date(2024, 6, 18, 8, 30, 0, 0, time.UTC) // Tuesday
	calm := time.Date(2024, 6, 18, 3, 0, 0, 0, time.UTC)
	for c := roadnet.RoadClass(0); c < 4; c++ {
		r := m.TruthMultiplier(c, rush)
		q := m.TruthMultiplier(c, calm)
		if r < 1 || q < 1 {
			t.Fatalf("multiplier below 1: rush=%v calm=%v", r, q)
		}
		if r <= q {
			t.Errorf("class %v: rush %v not above calm %v", c, r, q)
		}
	}
}

func TestTrafficForecastContainsTruthAndAboveOne(t *testing.T) {
	m := NewTrafficModel(2)
	issued := time.Date(2024, 6, 18, 7, 0, 0, 0, time.UTC)
	for _, horizon := range []time.Duration{0, time.Hour, 5 * time.Hour} {
		target := issued.Add(horizon)
		for c := roadnet.RoadClass(0); c < 4; c++ {
			iv := m.ForecastMultiplier(c, target, issued)
			if iv.Min < 1 {
				t.Errorf("lower bound %v below free flow", iv)
			}
			if !iv.Contains(m.TruthMultiplier(c, target)) && iv.Min != 1 {
				// When clamped at 1 the truth may sit below the clamp only if
				// it were <1, which TruthMultiplier forbids.
				t.Errorf("forecast %v missing truth %v", iv, m.TruthMultiplier(c, target))
			}
		}
	}
}

func TestTrafficClassWeightTablesOrdering(t *testing.T) {
	m := NewTrafficModel(4)
	issued := time.Date(2024, 6, 18, 7, 0, 0, 0, time.UTC)
	lower, upper := m.ClassWeightTables(issued.Add(2*time.Hour), issued)
	e := roadnet.Edge{Length: 1000, Class: roadnet.ClassArterial}
	lo, hi := lower.CostOf(e), upper.CostOf(e)
	freeFlow := 1000 / roadnet.ClassArterial.FreeFlowSpeed()
	if lo < freeFlow-1e-9 {
		t.Errorf("lower weight %v below free flow %v", lo, freeFlow)
	}
	if hi < lo {
		t.Errorf("upper %v below lower %v", hi, lo)
	}
}

func TestWeekendTrafficMilder(t *testing.T) {
	m := NewTrafficModel(6)
	weekdayRush := time.Date(2024, 6, 18, 17, 30, 0, 0, time.UTC) // Tuesday
	weekendSame := time.Date(2024, 6, 22, 17, 30, 0, 0, time.UTC) // Saturday
	wd := m.baseProfile(roadnet.ClassArterial, weekdayRush)
	we := m.baseProfile(roadnet.ClassArterial, weekendSame)
	if we >= wd {
		t.Errorf("weekend profile %v not milder than weekday %v", we, wd)
	}
}
