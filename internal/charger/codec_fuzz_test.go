package charger

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"ecocharge/internal/ec"
	"ecocharge/internal/geo"
	"ecocharge/internal/roadnet"
)

// fuzzCharger builds a charger from raw fuzz inputs, reporting false when
// the inputs fall outside the domain the codecs promise to handle
// (valid WGS84 coordinates, non-negative finite capacities).
func fuzzCharger(id int64, lat, lon float64, node int32, rateKW, panelKW, windKW float64, plugs int, tt0, tt1 float64) (Charger, bool) {
	p := geo.Point{Lat: lat, Lon: lon}
	if !p.Valid() {
		return Charger{}, false
	}
	for _, v := range []float64{rateKW, panelKW, windKW, tt0, tt1} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1e6 {
			return Charger{}, false
		}
	}
	c := Charger{
		ID: id, P: p, Node: roadnet.NodeID(node),
		Rate: rateFromKW(rateKW), PanelKW: panelKW, WindKW: windKW, Plugs: plugs,
		Timetable: new(ec.Timetable),
	}
	c.Timetable[0][0] = tt0
	c.Timetable[6][23] = tt1
	return c, true
}

// FuzzJSONRoundTrip checks that MarshalJSON/UnmarshalJSON is lossless:
// encoding/json renders float64 with a shortest round-trippable form, so
// every field — including the timetable — must survive exactly.
func FuzzJSONRoundTrip(f *testing.F) {
	f.Add(int64(1), 48.1, 11.5, int32(7), 22.0, 30.5, 0.0, 2, 0.5, 0.9)
	f.Add(int64(-3), -90.0, 180.0, int32(-1), 3.7, 0.0, 12.5, 0, 0.0, 1.0)
	f.Fuzz(func(t *testing.T, id int64, lat, lon float64, node int32, rateKW, panelKW, windKW float64, plugs int, tt0, tt1 float64) {
		c, ok := fuzzCharger(id, lat, lon, node, rateKW, panelKW, windKW, plugs, tt0, tt1)
		if !ok {
			t.Skip("outside codec domain")
		}
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var got Charger
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("unmarshal(%s): %v", data, err)
		}
		if !sameCharger(&got, &c) {
			t.Errorf("JSON round trip changed the charger\n in: %+v\nout: %+v\nwire: %s", c, got, data)
		}
		// A second trip must be a fixed point too.
		data2, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(data, data2) {
			t.Errorf("re-encoding is not stable:\n first: %s\nsecond: %s", data, data2)
		}
	})
}

// FuzzCSVRoundTrip checks the CSV codec's projection property: the first
// Write/Read pass may quantize (6-decimal coordinates, 1-decimal kW,
// nearest rate class), but a second pass over the projected charger must
// reproduce it exactly.
func FuzzCSVRoundTrip(f *testing.F) {
	f.Add(int64(1), 48.1, 11.5, int32(7), 22.0, 30.5, 0.0, 2)
	f.Add(int64(9), -89.999999, 179.999999, int32(0), 150.0, 0.05, 7.4, 1)
	f.Fuzz(func(t *testing.T, id int64, lat, lon float64, node int32, rateKW, panelKW, windKW float64, plugs int) {
		c, ok := fuzzCharger(id, lat, lon, node, rateKW, panelKW, windKW, plugs, 0, 0)
		if !ok {
			t.Skip("outside codec domain")
		}
		projected := csvTrip(t, c)
		again := csvTrip(t, projected)
		if again != projected {
			t.Errorf("CSV projection is not idempotent\nfirst:  %+v\nsecond: %+v", projected, again)
		}
		if projected.ID != c.ID || projected.Node != c.Node || projected.Plugs != c.Plugs {
			t.Errorf("CSV trip changed exact fields: %+v -> %+v", c, projected)
		}
	})
}

// csvTrip writes the charger through the CSV codec and reads it back.
func csvTrip(t *testing.T, c Charger) Charger {
	t.Helper()
	set, err := NewSet([]Charger{c})
	if err != nil {
		t.Skipf("unindexable charger: %v", err)
	}
	var buf bytes.Buffer
	if err := set.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	out, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV(%q): %v", buf.String(), err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d chargers, want 1", len(out))
	}
	return out[0]
}
