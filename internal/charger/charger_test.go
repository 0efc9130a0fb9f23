package charger

import (
	"bytes"
	"cmp"
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"ecocharge/internal/ec"
	"ecocharge/internal/geo"
	"ecocharge/internal/roadnet"
)

func testGraph(t testing.TB) *roadnet.Graph {
	t.Helper()
	return roadnet.GenerateUrban(roadnet.UrbanConfig{
		Origin: geo.Point{Lat: 53.0, Lon: 8.0}, WidthKM: 10, HeightKM: 8,
		SpacingM: 500, RemoveFrac: 0.05, JitterFrac: 0.2, ArterialEach: 5, Seed: 1,
	})
}

func testSet(t testing.TB, n int) *Set {
	t.Helper()
	g := testGraph(t)
	s, err := Generate(g, ec.NewAvailabilityModel(1), GenConfig{N: n, Seed: 2})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return s
}

func TestGenerateBasics(t *testing.T) {
	s := testSet(t, 200)
	if s.Len() != 200 {
		t.Fatalf("Len = %d", s.Len())
	}
	g := testGraph(t)
	bounds := g.Bounds().Buffer(100)
	seenRates := map[RateClass]bool{}
	var withPanels int
	for _, c := range s.All() {
		if !bounds.Contains(c.P) {
			t.Fatalf("charger %d outside network bounds: %v", c.ID, c.P)
		}
		if c.Node < 0 || int(c.Node) >= g.NumNodes() {
			t.Fatalf("charger %d has invalid node %d", c.ID, c.Node)
		}
		if g.Node(c.Node).P != c.P {
			t.Fatalf("charger %d not placed on its node", c.ID)
		}
		if c.Plugs < 1 || c.Plugs > 4 {
			t.Fatalf("charger %d has %d plugs", c.ID, c.Plugs)
		}
		seenRates[c.Rate] = true
		if c.PanelKW > 0 {
			withPanels++
		}
	}
	if len(seenRates) < 3 {
		t.Errorf("rate mix too uniform: %v", seenRates)
	}
	if withPanels < 100 {
		t.Errorf("only %d/200 chargers have panels", withPanels)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := testSet(t, 50)
	b := testSet(t, 50)
	for i := range a.All() {
		if a.All()[i].P != b.All()[i].P || a.All()[i].Rate != b.All()[i].Rate {
			t.Fatalf("charger %d differs across identical generations", i)
		}
	}
}

func TestGenerateEdgeCases(t *testing.T) {
	g := testGraph(t)
	if s, err := Generate(g, ec.NewAvailabilityModel(1), GenConfig{N: 0}); err != nil || s.Len() != 0 {
		t.Errorf("N=0: set=%v err=%v", s.Len(), err)
	}
	empty := roadnet.NewGraph(0, 0)
	empty.Freeze()
	if _, err := Generate(empty, ec.NewAvailabilityModel(1), GenConfig{N: 5}); err == nil {
		t.Error("generating on empty graph must fail")
	}
}

func TestNewSetRejectsDuplicateIDs(t *testing.T) {
	cs := []Charger{
		{ID: 1, P: geo.Point{Lat: 53, Lon: 8}},
		{ID: 1, P: geo.Point{Lat: 53.1, Lon: 8.1}},
	}
	if _, err := NewSet(cs); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

func TestSetQueries(t *testing.T) {
	s := testSet(t, 300)
	c0 := s.All()[17]
	got, ok := s.ByID(c0.ID)
	if !ok || got.ID != c0.ID {
		t.Fatalf("ByID failed")
	}
	if _, ok := s.ByID(99999); ok {
		t.Error("ByID of unknown ID succeeded")
	}
	near := s.KNearest(c0.P, 5)
	if len(near) != 5 {
		t.Fatalf("KNearest returned %d", len(near))
	}
	if near[0].ID != c0.ID && geo.Distance(near[0].P, c0.P) > 1 {
		t.Errorf("nearest charger to a charger location is %v away", geo.Distance(near[0].P, c0.P))
	}
	within := s.Within(c0.P, 3000)
	for _, c := range within {
		if geo.Distance(c.P, c0.P) > 3000 {
			t.Errorf("Within returned charger at %v m", geo.Distance(c.P, c0.P))
		}
	}
	if s.MaxRESKW() <= 0 {
		t.Error("MaxPanelKW not positive")
	}
}

func TestEmptySetQueries(t *testing.T) {
	s, err := NewSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.KNearest(geo.Point{Lat: 53, Lon: 8}, 3); len(got) != 0 {
		t.Errorf("empty set KNearest = %v", got)
	}
	if got := s.Within(geo.Point{Lat: 53, Lon: 8}, 1000); len(got) != 0 {
		t.Errorf("empty set Within = %v", got)
	}
	if s.MaxRESKW() != 0 {
		t.Error("empty set MaxPanelKW != 0")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := testSet(t, 40)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(back) != s.Len() {
		t.Fatalf("round trip length %d vs %d", len(back), s.Len())
	}
	for i, c := range back {
		orig := s.All()[i]
		if c.ID != orig.ID || c.Node != orig.Node || c.Rate != orig.Rate || c.Plugs != orig.Plugs {
			t.Fatalf("row %d mismatch: %+v vs %+v", i, c, orig)
		}
		if geo.Distance(c.P, orig.P) > 0.2 {
			t.Fatalf("row %d position drifted %v m", i, geo.Distance(c.P, orig.P))
		}
	}
}

func TestReadCSVMalformed(t *testing.T) {
	cases := map[string]string{
		"bad header": "nope,lat,lon,node,rate_kw,panel_kw,wind_kw,plugs\n",
		"bad id":     "id,lat,lon,node,rate_kw,panel_kw,wind_kw,plugs\nxx,53,8,0,11,5,0,2\n",
		"bad lat":    "id,lat,lon,node,rate_kw,panel_kw,wind_kw,plugs\n1,abc,8,0,11,5,0,2\n",
		"lat range":  "id,lat,lon,node,rate_kw,panel_kw,wind_kw,plugs\n1,95,8,0,11,5,0,2\n",
		"neg panel":  "id,lat,lon,node,rate_kw,panel_kw,wind_kw,plugs\n1,53,8,0,11,-5,0,2\n",
		"neg wind":   "id,lat,lon,node,rate_kw,panel_kw,wind_kw,plugs\n1,53,8,0,11,5,-2,2\n",
		"短 row":      "id,lat,lon,node,rate_kw,panel_kw,wind_kw,plugs\n1,53,8\n",
	}
	for name, data := range cases {
		if _, err := ReadCSV(strings.NewReader(data)); err == nil {
			t.Errorf("%s: malformed CSV accepted", name)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := testSet(t, 10)
	orig := s.All()[3]
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Charger
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != orig.ID || back.P != orig.P || back.Rate != orig.Rate ||
		back.PanelKW != orig.PanelKW || back.Timetable != orig.Timetable {
		t.Fatalf("JSON round trip mismatch:\n got %+v\nwant %+v", back, orig)
	}
}

func TestJSONRejectsInvalidCoords(t *testing.T) {
	var c Charger
	if err := json.Unmarshal([]byte(`{"id":1,"lat":123,"lon":8}`), &c); err == nil {
		t.Fatal("invalid latitude accepted")
	}
}

func TestRateFromKW(t *testing.T) {
	cases := map[float64]RateClass{3.7: RateAC37, 11: RateAC11, 22: RateAC22, 50: RateDC50, 150: RateDC150, 12: RateAC11}
	for kw, want := range cases {
		if got := rateFromKW(kw); got != want {
			t.Errorf("rateFromKW(%v) = %v, want %v", kw, got, want)
		}
	}
}

func TestProductionSeries(t *testing.T) {
	s := testSet(t, 5)
	m := ec.NewSolarModel(1)
	c := &s.All()[0]
	if c.PanelKW == 0 { // find one with panels
		for i := range s.All() {
			if s.All()[i].PanelKW > 0 {
				c = &s.All()[i]
				break
			}
		}
	}
	from := time.Date(2017, 6, 10, 0, 0, 0, 0, time.UTC)
	to := from.Add(24 * time.Hour)
	series := ProductionSeries(m, c, from, to)
	if len(series) != 96 {
		t.Fatalf("24h of 15-min samples = %d, want 96", len(series))
	}
	var day, night float64
	for _, smp := range series {
		if smp.KW < 0 {
			t.Fatalf("negative production %v", smp.KW)
		}
		h := smp.Start.Hour()
		if h >= 10 && h < 14 {
			day += smp.KW
		}
		if h < 2 || h >= 22 {
			night += smp.KW
		}
	}
	if day <= night {
		t.Errorf("midday production %v not above night %v", day, night)
	}
	if got := ProductionSeries(m, c, to, from); got != nil {
		t.Error("reversed range must return nil")
	}
}

func TestRateClassStrings(t *testing.T) {
	if RateDC150.String() != "DC 150kW" || RateAC37.String() != "AC 3.7kW" {
		t.Error("RateClass String wrong")
	}
	if RateClass(200).KW() != 11 {
		t.Error("unknown rate KW default wrong")
	}
}

// TestWithinIntoAnswersLikeWithin: a radius query into caller storage gets
// the set Within returns — also for a radius that is to the bit some
// charger's distance (the bound is inclusive) — in the index's order, which
// is not Within's but is the same from call to call and from one Set of these
// chargers to the next, and allocates nothing on warm storage.
func TestWithinIntoAnswersLikeWithin(t *testing.T) {
	s := testSet(t, 400)
	twin, err := NewSet(s.All())
	if err != nil {
		t.Fatal(err)
	}
	byID := func(a, b *Charger) int { return cmp.Compare(a.ID, b.ID) }
	ids := func(cs []*Charger) []int64 {
		out := make([]int64, len(cs))
		for i, c := range cs {
			out[i] = c.ID
		}
		return out
	}
	rng := rand.New(rand.NewSource(5))
	var store, again Candidates
	reordered := 0
	atBound := 0
	for q := 0; q < 400; q++ {
		p := s.All()[rng.Intn(s.Len())].P
		p.Lat += (rng.Float64() - 0.5) / 100
		radius := []float64{900, 4000, 12000, 60000}[q%4] * rng.Float64()
		if q%4 == 3 { // a radius that ends on a charger
			radius = geo.Distance(p, s.All()[rng.Intn(s.Len())].P)
		}
		want := s.Within(p, radius)
		got := s.WithinInto(&store, p, radius)
		if !slices.Equal(got, s.WithinInto(&again, p, radius)) || !slices.Equal(ids(got), ids(twin.WithinInto(&again, p, radius))) {
			t.Fatalf("query %d: WithinInto around %v within %v m answers in an order that does not repeat", q, p, radius)
		}
		if !slices.Equal(got, want) {
			reordered++
		}
		sorted := slices.Clone(got)
		slices.SortFunc(sorted, byID)
		slices.SortFunc(want, byID)
		if !slices.Equal(sorted, want) {
			t.Fatalf("query %d: WithinInto answers %d chargers around %v within %v m, Within %d", q, len(got), p, radius, len(want))
		}
		//ecolint:ignore floateq the radius is that very distance
		if q%4 == 3 && slices.ContainsFunc(want, func(c *Charger) bool { return geo.Distance(p, c.P) == radius }) {
			atBound++
		}
	}
	if atBound < 50 {
		t.Fatalf("%d queries ending on a charger; the comparison wants plenty", atBound)
	}
	if reordered == 0 {
		t.Fatal("WithinInto answered closest first every time: it is sorting")
	}

	center := s.All()[0].P
	query := func() { s.WithinInto(&store, center, 30000) }
	query()
	if allocs := testing.AllocsPerRun(100, query); allocs != 0 {
		t.Errorf("WithinInto allocates %v times per query on warm storage", allocs)
	}

	empty, err := NewSet(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.WithinInto(&store, center, 1000); len(got) != 0 {
		t.Errorf("empty set WithinInto = %v", got)
	}
}
