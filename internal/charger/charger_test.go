package charger

import (
	"bytes"
	"cmp"
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ecocharge/internal/ec"
	"ecocharge/internal/geo"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/spatial"
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
	if !sameCharger(&back, &orig) {
		t.Fatalf("JSON round trip mismatch:\n got %+v %v\nwant %+v %v", back, tableOf(&back), orig, tableOf(&orig))
	}
}

// sameCharger reports whether two chargers hold the same fields and the same
// timetable values, a nil table reading as the zero table: == would compare
// the tables' addresses.
func sameCharger(a, b *Charger) bool {
	return a.ID == b.ID && a.P == b.P && a.Node == b.Node && a.Rate == b.Rate &&
		a.PanelKW == b.PanelKW && a.WindKW == b.WindKW && a.Plugs == b.Plugs &&
		tableOf(a) == tableOf(b)
}

func tableOf(c *Charger) (tt ec.Timetable) {
	if c.Timetable != nil {
		tt = *c.Timetable
	}
	return tt
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

// TestSetAgreesWithBruteForce builds sets from chargers in shuffled ID order,
// many of them sharing a position, and holds Within, WithinInto, KNearest and
// ByID to spatial.BruteForce over the same chargers: the same chargers at the
// same distances, equal distances in charger-ID order (WithinInto's order is
// the index's own, so it is compared as a set).
func TestSetAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(300)
		sites := make([]geo.Point, 1+rng.Intn(n))
		for i := range sites {
			sites[i] = geo.Point{Lat: 53 + rng.Float64()*0.3, Lon: 8 + rng.Float64()*0.4}
		}
		cs := make([]Charger, n)
		oracle := spatial.NewBruteForce()
		for i, id := range rng.Perm(n) {
			cs[i] = Charger{ID: int64(10 + 3*id), P: sites[rng.Intn(len(sites))], Plugs: i}
			oracle.Insert(spatial.Item{P: cs[i].P, ID: cs[i].ID})
		}
		s, err := NewSet(cs)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cs {
			if got, ok := s.ByID(c.ID); !ok || *got != c {
				t.Fatalf("trial %d: ByID(%d) = %v, %v; want %v", trial, c.ID, got, ok, c)
			}
		}
		if _, ok := s.ByID(11); ok {
			t.Fatalf("trial %d: ByID of an unknown ID succeeded", trial)
		}
		var store Candidates
		for q := 0; q < 30; q++ {
			p := sites[rng.Intn(len(sites))]
			if q%2 == 1 {
				p = geo.Point{Lat: 53 + rng.Float64()*0.3, Lon: 8 + rng.Float64()*0.4}
			}
			radius := rng.Float64() * 20000
			want := oracle.Within(p, radius)
			got := s.Within(p, radius)
			assertNeighbors(t, "Within", got, want)
			into := slices.Clone(s.WithinInto(&store, p, radius))
			slices.SortFunc(into, func(a, b *Charger) int { return cmp.Compare(a.ID, b.ID) })
			slices.SortFunc(got, func(a, b *Charger) int { return cmp.Compare(a.ID, b.ID) })
			if !slices.Equal(into, got) {
				t.Fatalf("trial %d: WithinInto around %v within %v m is not Within's set", trial, p, radius)
			}
			k := 1 + rng.Intn(12)
			assertNeighbors(t, "KNearest", s.KNearest(p, k), oracle.KNN(p, k))
		}
	}
}

// assertNeighbors fails unless got lists want's chargers in want's order,
// each the charger its ID names.
func assertNeighbors(t *testing.T, what string, got []*Charger, want []spatial.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d chargers, brute force %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].P != want[i].P {
			t.Fatalf("%s: charger %d is %d at %v, brute force %d at %v", what, i, got[i].ID, got[i].P, want[i].ID, want[i].P)
		}
	}
}
