package eis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
	"ecocharge/internal/ec"
	"ecocharge/internal/interval"
)

// TestNilTimetableIsTheZeroTable: a charger without a popular-times table
// reads as one whose table is all zeros. Its availability forecast and truth
// are the same bits, a ranking gives the same Offering Table, and /chargers
// answers the same bytes on both planes, 168 zeros a charger.
func TestNilTimetableIsTheZeroTable(t *testing.T) {
	env := testEnv(t)
	var zero ec.Timetable
	nilEnv, zeroEnv := withTimetable(t, env, nil), withTimetable(t, env, &zero)

	same := func(a, b interval.I) bool {
		return math.Float64bits(a.Min) == math.Float64bits(b.Min) && math.Float64bits(a.Max) == math.Float64bits(b.Max)
	}
	for _, c := range nilEnv.Chargers.All() {
		z, _ := zeroEnv.Chargers.ByID(c.ID)
		for h := 0; h < 7*24; h += 5 {
			at := fixedNow.Add(time.Duration(h)*time.Hour + 17*time.Minute)
			a, okA := nilEnv.AForecast(&c, at, fixedNow)
			b, okB := zeroEnv.AForecast(z, at, fixedNow)
			if okA != okB || !same(a, b) {
				t.Fatalf("charger %d at %v: AForecast %v, %v without a table, %v, %v with the zero table", c.ID, at, a, okA, b, okB)
			}
			if x, y := env.Avail.TruthBusy(c.ID, c.Timetable, at), env.Avail.TruthBusy(z.ID, z.Timetable, at); math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("charger %d at %v: TruthBusy %v without a table, %v with the zero table", c.ID, at, x, y)
			}
		}
	}

	center := env.Graph.Bounds().Center()
	chargersURL := fmt.Sprintf("%s/chargers?lat=%v&lon=%v&radius_m=8000", APIVersion, center.Lat, center.Lon)
	offering, err := json.Marshal(OfferingRequest{
		Lat: center.Lat, Lon: center.Lon, K: 5, RadiusM: 8000,
		Now: fixedNow, ETA: fixedNow.Add(10 * time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	answers := func(e *cknn.Env) [][]byte {
		ts := httptest.NewServer(NewServer(e, ServerOptions{Clock: func() time.Time { return fixedNow }}).Handler())
		defer ts.Close()
		return [][]byte{
			jsonGet(t, ts.URL+chargersURL),
			wireGet(t, ts.URL+chargersURL),
			planePost(t, ts.URL+APIVersion+"/offering", "application/json", offering, false),
			planePost(t, ts.URL+APIVersion+"/offering", "application/json", offering, true),
		}
	}
	got, want := answers(nilEnv), answers(zeroEnv)
	for i, label := range []string{"JSON /chargers", "wire /chargers", "JSON /offering", "wire /offering"} {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s without tables differs from the zero tables':\n%.300s\n%.300s", label, got[i], want[i])
		}
	}
	row := "[" + strings.Repeat("0,", 23) + "0]"
	zeros := `"timetable":[` + strings.Repeat(row+",", 6) + row + "]"
	var listed []json.RawMessage
	if err := json.Unmarshal(got[0], &listed); err != nil || len(listed) == 0 {
		t.Fatalf("/chargers lists %d chargers (%v)", len(listed), err)
	}
	if n := strings.Count(string(got[0]), zeros); n != len(listed) {
		t.Fatalf("%d of %d chargers written with 168 zeros", n, len(listed))
	}
}

// withTimetable is env with every charger's table replaced by tt.
func withTimetable(t *testing.T, env *cknn.Env, tt *ec.Timetable) *cknn.Env {
	t.Helper()
	cs := slices.Clone(env.Chargers.All())
	for i := range cs {
		cs[i].Timetable = tt
	}
	set, err := charger.NewSet(cs)
	if err != nil {
		t.Fatal(err)
	}
	e := *env
	e.Chargers = set
	return &e
}
