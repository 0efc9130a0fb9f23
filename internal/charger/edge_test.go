package charger

import (
	"bytes"
	"strings"
	"testing"

	"ecocharge/internal/ec"
	"ecocharge/internal/geo"
)

// Quoted CSV fields (as spreadsheet exports produce) parse fine.
func TestReadCSVQuotedFields(t *testing.T) {
	data := `id,lat,lon,node,rate_kw,panel_kw,wind_kw,plugs
"1","53.0","8.0","0","11.0","5.0","0.0","2"
`
	got, err := ReadCSV(strings.NewReader(data))
	if err != nil {
		t.Fatalf("quoted CSV rejected: %v", err)
	}
	if len(got) != 1 || got[0].ID != 1 || got[0].Rate != RateAC11 {
		t.Fatalf("parsed %+v", got)
	}
}

// An empty CSV (header only) round-trips to an empty set.
func TestCSVHeaderOnly(t *testing.T) {
	s, err := NewSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("header-only CSV rejected: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d rows", len(got))
	}
}

// Wind capacities survive the CSV round trip.
func TestCSVWindRoundTrip(t *testing.T) {
	tt := ec.NewAvailabilityModel(1).GenerateTimetable(7)
	cs := []Charger{{
		ID: 7, P: geo.Point{Lat: 53.01, Lon: 8.02}, Node: 3,
		Rate: RateDC50, PanelKW: 12.5, WindKW: 33.0, Plugs: 2,
		Timetable: &tt,
	}}
	s, err := NewSet(cs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back[0].WindKW != 33.0 || back[0].PanelKW != 12.5 {
		t.Fatalf("capacities drifted: %+v", back[0])
	}
}

// Generate produces some wind-equipped chargers and none in clusters.
func TestGenerateWindPlacement(t *testing.T) {
	s := testSet(t, 400)
	withWind := 0
	for _, c := range s.All() {
		if c.WindKW > 0 {
			withWind++
			if c.WindKW < 0 {
				t.Fatalf("negative wind capacity: %+v", c)
			}
		}
	}
	if withWind == 0 {
		t.Fatal("no wind-equipped chargers generated")
	}
	if withWind > 200 {
		t.Fatalf("wind everywhere: %d of 400", withWind)
	}
}
