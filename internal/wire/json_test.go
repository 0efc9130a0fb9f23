package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/geo"
)

// encodeJSON is the reference every JSON appender is held to: what
// json.NewEncoder(w).Encode(v) writes for v, or its refusal.
func encodeJSON(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// checkJSON fails unless an appender's output is the reference's for v, or
// both refuse.
func checkJSON(t *testing.T, name string, got []byte, gotErr error, v interface{}) {
	t.Helper()
	want, wantErr := encodeJSON(v)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s: the appender says %v, encoding/json %v", name, gotErr, wantErr)
	case gotErr == nil && !bytes.Equal(got, want):
		t.Fatalf("%s: the appender differs from encoding/json\nappender: %s\nencoder:  %s", name, got, want)
	}
}

// chargerMirror is a charger's JSON shape as encoding/json's reflection
// writes it, the reference for charger.AppendJSON, which Charger.MarshalJSON
// calls and which therefore cannot be its own reference.
type chargerMirror struct {
	ID        int64          `json:"id"`
	Lat       float64        `json:"lat"`
	Lon       float64        `json:"lon"`
	Node      int32          `json:"node"`
	RateKW    float64        `json:"rate_kw"`
	PanelKW   float64        `json:"panel_kw"`
	WindKW    float64        `json:"wind_kw"`
	Plugs     int            `json:"plugs"`
	Timetable [7][24]float64 `json:"timetable"`
}

func mirrorOf(c *charger.Charger) *chargerMirror {
	if c == nil {
		return nil
	}
	m := &chargerMirror{
		ID: c.ID, Lat: c.P.Lat, Lon: c.P.Lon, Node: int32(c.Node),
		RateKW: c.Rate.KW(), PanelKW: c.PanelKW, WindKW: c.WindKW, Plugs: c.Plugs,
	}
	if c.Timetable != nil {
		m.Timetable = *c.Timetable
	}
	return m
}

// checkOffering holds the offering appender to the reference.
func checkOffering(t *testing.T, name string, resp *OfferingResponse) {
	t.Helper()
	got, err := AppendOfferingResponseJSON(nil, resp)
	checkJSON(t, name, got, err, resp)
}

func checkTrip(t *testing.T, name string, resp *TripOfferingResponse) {
	t.Helper()
	got, err := AppendTripResponseJSON(nil, resp)
	checkJSON(t, name, got, err, resp)
}

// checkChargers holds the list appender to encoding/json over the chargers'
// JSON shape (chargerMirror), and again with a nil reference in the list.
func checkChargers(t *testing.T, name string, cs []*charger.Charger) {
	t.Helper()
	var mirror []*chargerMirror
	if cs != nil {
		mirror = []*chargerMirror{}
	}
	for _, c := range cs {
		mirror = append(mirror, mirrorOf(c))
	}
	got, err := AppendChargerRefsJSON(nil, cs)
	checkJSON(t, name, got, err, mirror)
	if cs == nil {
		return
	}
	got, err = AppendChargerRefsJSON(nil, append(cs[:len(cs):len(cs)], nil))
	checkJSON(t, name+" with a nil reference", got, err, append(mirror, nil))
}

// checkPoints holds the weather and availability appenders to the
// reference.
func checkPoints(t *testing.T, id int64, at time.Time, iv IntervalJSON) {
	t.Helper()
	weather := WeatherResponse{ChargerID: id, At: at, ProductionKW: iv}
	got, err := AppendWeatherJSON(nil, &weather)
	checkJSON(t, "weather", got, err, &weather)
	avail := AvailabilityResponse{ChargerID: id, At: at, Availability: iv}
	got, err = AppendAvailabilityJSON(nil, &avail)
	checkJSON(t, "availability", got, err, &avail)
}

// Edge values of the two rules the appenders copy from encoding/json.
var (
	jsonEdgeFloats = []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		5e-324, 2.2250738585072014e-308, -1e-7, 1e-7, 9.99999e-7, 1e-6,
		0.1, 123.456, 1e20, 999999999999999999999, 1e21, -1e21, math.MaxFloat64,
	}
	jsonEdgeTimes = []struct {
		sec    int64
		nsec   uint32
		offSec int32
	}{
		{1718702000, 0, 0},
		{1718702000, 1, 20700},            // +05:45
		{1718702000, 500_000_000, -34200}, // -09:30, trailing zeros trimmed
		{1718702000, 999_999_999, 3601},   // an offset of whole seconds
		{1718702000, 0, 86340},            // +23:59, the widest zone
		{1718702000, 0, 86400},            // +24:00, refused
		{-62167219200, 0, 0},              // 0000-01-01, the first year
		{-62167219201, 0, 0},              // year -1, refused
		{253402300799, 999_999_999, 0},    // 9999-12-31, the last
		{253402300800, 0, 0},              // 10000-01-01, refused
		{253402300799, 0, -3600},          // 9999 in UTC, 9999 here too
		{-62167219200, 0, -3600},          // year 0 in UTC, -1 here: refused
	}
)

// FuzzAnswerJSON holds every JSON appender byte-identical to encoding/json
// and refusing exactly what it refuses: over any answer the wire codec
// decodes from data, and over answers built around x, in every float slot
// and in one slot alone, and a time from sec, nsec and offSec, zone and year
// unchecked. Nil and empty lists come out as encoding/json writes them.
func FuzzAnswerJSON(f *testing.F) {
	resp := sampleResponse(3)
	trip := sampleTripResponse(5)
	corpus := [][]byte{
		AppendOfferingResponse(nil, &resp),
		AppendOfferingResponse(nil, &OfferingResponse{GeneratedAt: cestNow}),
		AppendOfferingResponse(nil, &OfferingResponse{Entries: []OfferingEntry{}}),
		AppendTripResponse(nil, &trip),
		AppendTripResponse(nil, &TripOfferingResponse{Segments: []SegmentOffering{}, SplitPoints: []int{}}),
		AppendChargerRefs(nil, sampleChargers(3)),
		AppendChargerRefs(nil, nil),
		AppendChargerRefs(nil, []*charger.Charger{}),
	}
	for i, x := range jsonEdgeFloats {
		tm := jsonEdgeTimes[i%len(jsonEdgeTimes)]
		f.Add(corpus[i%len(corpus)], x, tm.sec, tm.nsec, tm.offSec)
	}
	for i, tm := range jsonEdgeTimes {
		f.Add(corpus[i%len(corpus)], 0.25, tm.sec, tm.nsec, tm.offSec)
	}
	f.Fuzz(checkAnswersJSON)
}

// checkAnswersJSON is FuzzAnswerJSON's property over one input.
func checkAnswersJSON(t *testing.T, data []byte, x float64, sec int64, nsec uint32, offSec int32) {
	var resp OfferingResponse
	if DecodeOfferingResponse(data, &resp) == nil {
		checkOffering(t, "decoded offering", &resp)
	}
	var trip TripOfferingResponse
	if DecodeTripResponse(data, &trip) == nil {
		checkTrip(t, "decoded trip", &trip)
	}
	if cs, err := DecodeChargers(data, nil); err == nil {
		checkChargers(t, "decoded chargers", refsOf(cs))
	}

	at := time.Unix(sec, int64(nsec%1_000_000_000)).In(time.FixedZone("", int(offSec)))
	everywhere := OfferingEntry{
		ChargerID: sec, Lat: x, Lon: x, RateKW: x,
		SC: IntervalJSON{Min: x, Max: x}, L: IntervalJSON{Min: x, Max: x},
		A: IntervalJSON{Min: x, Max: x}, D: IntervalJSON{Min: x, Max: x},
		ETA: at, Degraded: uint8(nsec),
	}
	last := OfferingEntry{ChargerID: 1, ETA: cestNow, D: IntervalJSON{Max: x}}
	for _, entries := range [][]OfferingEntry{nil, {}, {everywhere}, {last, everywhere}, {last}} {
		checkOffering(t, "offering", &OfferingResponse{Entries: entries, GeneratedAt: at, Cached: nsec%2 == 0})
		checkOffering(t, "offering at a plain time", &OfferingResponse{Entries: entries, GeneratedAt: cestNow})
		checkTrip(t, "trip", &TripOfferingResponse{
			TripLengthM: x,
			Segments: []SegmentOffering{
				{SegmentIndex: int(offSec), Anchor: LatLon{Lat: x, Lon: x}, ETA: at, LengthM: x, Adapted: true, Entries: entries},
				{ETA: cestNow, Entries: entries},
			},
			SplitPoints: []int{0, int(offSec)},
		})
	}
	checkTrip(t, "empty trip", &TripOfferingResponse{TripLengthM: x})
	checkTrip(t, "trip of empty lists", &TripOfferingResponse{Segments: []SegmentOffering{}, SplitPoints: []int{}})

	c := sampleChargers(2)
	c[0].P, c[0].PanelKW, c[0].WindKW = geo.Point{Lat: x, Lon: x}, x, x
	c[1].Timetable[int(nsec%7)][int(nsec%24)] = x
	for _, cs := range [][]*charger.Charger{nil, {}, c[:1], c[1:]} {
		checkChargers(t, "chargers", cs)
	}

	checkPoints(t, sec, at, IntervalJSON{Min: x, Max: x})
	checkPoints(t, sec, cestNow, IntervalJSON{Min: 0, Max: x})
}
