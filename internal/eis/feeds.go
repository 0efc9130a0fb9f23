package eis

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/geo"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/wire"
)

// Feeds answers the four data feeds of the EIS (§IV) — chargers, weather,
// popular-times availability and traffic — from a world and a clock. A
// shard's Server mounts them over its partition, and a fleet gateway over the
// whole world its shards were built from, so the gateway answers every feed
// itself, with the bytes a single EIS answers, whichever shard is down.
type Feeds struct {
	env   *cknn.Env
	clock func() time.Time
	// writeError answers and logs a refused request, in its server's words.
	writeError func(w http.ResponseWriter, code int, format string, args ...interface{})
	// m counts the encodes: a shard's metrics, or nil for a gateway, whose
	// answers count on no eis_* series.
	m *eisMetrics
}

// NewFeeds returns the feeds over env at clock, whose answers count on no
// metric; writeError answers a refused request.
func NewFeeds(env *cknn.Env, clock func() time.Time, writeError func(w http.ResponseWriter, code int, format string, args ...interface{})) *Feeds {
	return &Feeds{env: env, clock: clock, writeError: writeError}
}

// Chargers returns the chargers within a radius of a location (the
// PlugShare-consolidation endpoint), nearest first.
func (f *Feeds) Chargers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		f.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	p, radius, err := chargersParams(r)
	if err != nil {
		f.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cs := f.env.Chargers.Within(p, radius)
	Respond(w, r, f.m, func(b []byte) ([]byte, error) { return wire.AppendChargerRefsJSON(b, cs) },
		func(b []byte) []byte { return wire.AppendChargerRefs(b, cs) })
}

// Weather returns the production forecast of a charger at a time (the
// OpenWeatherMap-consolidation endpoint).
func (f *Feeds) Weather(w http.ResponseWriter, r *http.Request) {
	c, at, now, ok := f.chargerAt(w, r)
	if !ok {
		return
	}
	resp := WeatherResponse{ChargerID: c.ID, At: at, ProductionKW: wire.ToWire(f.env.ProductionForecast(c, at, now))}
	Respond(w, r, f.m, func(b []byte) ([]byte, error) { return wire.AppendWeatherJSON(b, &resp) }, nil)
}

// Availability returns the availability estimate of a charger (the
// busy-timetable endpoint).
func (f *Feeds) Availability(w http.ResponseWriter, r *http.Request) {
	c, at, now, ok := f.chargerAt(w, r)
	if !ok {
		return
	}
	resp := AvailabilityResponse{ChargerID: c.ID, At: at, Availability: wire.ToWire(f.env.Avail.ForecastAvailability(c.ID, c.Timetable, at, now))}
	Respond(w, r, f.m, func(b []byte) ([]byte, error) { return wire.AppendAvailabilityJSON(b, &resp) }, nil)
}

// Traffic returns the congestion band per road class (the GIS traffic
// endpoint).
func (f *Feeds) Traffic(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		f.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	now := f.clock()
	at, err := timeParam(r, "t", now)
	if err != nil {
		f.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp := TrafficResponse{At: at, Multiplier: make(map[string]IntervalJSON, 4)}
	for c := roadnet.RoadClass(0); c < 4; c++ {
		resp.Multiplier[c.String()] = wire.ToWire(f.env.Traffic.ForecastMultiplier(c, at, now))
	}
	WriteJSONStatus(w, http.StatusOK, resp)
}

// chargerAt reads the charger and t parameters of /weather and /availability,
// finds the charger and returns it with t and the time now; ok is false once
// a request it refuses is answered.
func (f *Feeds) chargerAt(w http.ResponseWriter, r *http.Request) (c *charger.Charger, at, now time.Time, ok bool) {
	if r.Method != http.MethodGet {
		f.writeError(w, http.StatusMethodNotAllowed, "GET only")
		return nil, at, now, false
	}
	id, err := chargerIDParam(r)
	if err != nil {
		f.writeError(w, http.StatusBadRequest, "%v", err)
		return nil, at, now, false
	}
	c, found := f.env.Chargers.ByID(id)
	if !found {
		f.writeError(w, http.StatusNotFound, "charger %d not found", id)
		return nil, at, now, false
	}
	now = f.clock()
	if at, err = timeParam(r, "t", now); err != nil {
		f.writeError(w, http.StatusBadRequest, "%v", err)
		return nil, at, now, false
	}
	return c, at, now, true
}

func parseFloat(r *http.Request, name string) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("parameter %q is not a finite number", name)
	}
	return v, nil
}

// chargerIDParam parses the "charger" query parameter of the per-charger
// endpoints: a base-10 integer and nothing else. Charger IDs are int64s, so
// "7.9", "1e3" and "NaN" name no charger — reading them as floats and
// truncating would answer for charger 7, for charger 1000, and for whatever
// integer the platform converts NaN to.
func chargerIDParam(r *http.Request) (int64, error) {
	raw := r.URL.Query().Get("charger")
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", "charger")
	}
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q is not an integer charger ID", "charger")
	}
	return id, nil
}

// timeParam parses the RFC3339 query parameter name, def when it is absent.
func timeParam(r *http.Request, name string, def time.Time) (time.Time, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	t, err := time.Parse(time.RFC3339, raw)
	if err != nil {
		return time.Time{}, fmt.Errorf("parameter %q is not RFC3339: %v", name, err)
	}
	return t, nil
}

// chargersParams parses the lat, lon and radius_m query parameters of
// /chargers; the error is the 400 a server answers with.
func chargersParams(r *http.Request) (geo.Point, float64, error) {
	lat, err := parseFloat(r, "lat")
	if err != nil {
		return geo.Point{}, 0, err
	}
	lon, err := parseFloat(r, "lon")
	if err != nil {
		return geo.Point{}, 0, err
	}
	radius, err := parseFloat(r, "radius_m")
	if err != nil {
		return geo.Point{}, 0, err
	}
	p := geo.Point{Lat: lat, Lon: lon}
	if !p.Valid() || radius < 0 {
		return geo.Point{}, 0, errors.New("invalid location or radius")
	}
	return p, radius, nil
}
