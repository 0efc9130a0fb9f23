package trajectory

import (
	"math"
	"testing"
	"time"

	"ecocharge/internal/geo"
	"ecocharge/internal/roadnet"
)

var t0 = time.Date(2024, 6, 18, 9, 0, 0, 0, time.UTC)

func smallGraph(t testing.TB) *roadnet.Graph {
	t.Helper()
	return roadnet.GenerateUrban(roadnet.UrbanConfig{
		Origin: geo.Point{Lat: 53.0, Lon: 8.0}, WidthKM: 12, HeightKM: 10,
		SpacingM: 500, RemoveFrac: 0.05, JitterFrac: 0.2, ArterialEach: 5, Seed: 1,
	})
}

func genTrips(t testing.TB, g *roadnet.Graph, n int) []Trip {
	t.Helper()
	trips, err := Generate(g, GenConfig{
		N: n, Seed: 7, MinTripKM: 3, MaxTripKM: 15, Start: t0, Window: time.Hour,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return trips
}

func TestGenerateRespectsConstraints(t *testing.T) {
	g := smallGraph(t)
	trips := genTrips(t, g, 30)
	if len(trips) != 30 {
		t.Fatalf("got %d trips", len(trips))
	}
	for _, trip := range trips {
		km := trip.Path.Weight / 1000
		if km < 3 || km > 15 {
			t.Errorf("trip %d length %.1f km outside [3, 15]", trip.ID, km)
		}
		if trip.Depart.Before(t0) || !trip.Depart.Before(t0.Add(time.Hour)) {
			t.Errorf("trip %d departs at %v outside window", trip.ID, trip.Depart)
		}
		if len(trip.Path.Nodes) < 2 {
			t.Errorf("trip %d has %d nodes", trip.ID, len(trip.Path.Nodes))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := smallGraph(t)
	a := genTrips(t, g, 10)
	b := genTrips(t, g, 10)
	for i := range a {
		if a[i].Path.Weight != b[i].Path.Weight || !a[i].Depart.Equal(b[i].Depart) {
			t.Fatalf("trip %d differs across identical generations", i)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	tiny := roadnet.NewGraph(1, 0)
	tiny.AddNode(geo.Point{Lat: 53, Lon: 8})
	tiny.Freeze()
	if _, err := Generate(tiny, GenConfig{N: 1}); err == nil {
		t.Error("1-node graph accepted")
	}
	g := smallGraph(t)
	// Impossible constraint: minimum longer than the network diameter.
	if _, err := Generate(g, GenConfig{N: 1, Seed: 1, MinTripKM: 10000}); err == nil {
		t.Error("impossible MinTripKM accepted")
	}
	if trips, err := Generate(g, GenConfig{N: 0}); err != nil || trips != nil {
		t.Errorf("N=0: trips=%v err=%v", trips, err)
	}
}

func TestSegmentTripCoversWholePath(t *testing.T) {
	g := smallGraph(t)
	trips := genTrips(t, g, 10)
	for _, trip := range trips {
		segs := SegmentTrip(g, trip, 4000)
		if len(segs) == 0 {
			t.Fatalf("trip %d: no segments", trip.ID)
		}
		// Segment chain is contiguous: each segment starts where the
		// previous ended, first at trip start, last at trip end.
		first := g.Node(trip.Path.Nodes[0]).P
		last := g.Node(trip.Path.Nodes[len(trip.Path.Nodes)-1]).P
		if segs[0].Start != first {
			t.Errorf("trip %d: first segment starts at %v, not %v", trip.ID, segs[0].Start, first)
		}
		if segs[len(segs)-1].End != last {
			t.Errorf("trip %d: last segment ends at %v, not %v", trip.ID, segs[len(segs)-1].End, last)
		}
		var total float64
		for i, s := range segs {
			if i > 0 && s.Start != segs[i-1].End {
				t.Errorf("trip %d: segment %d not contiguous", trip.ID, i)
			}
			if s.Index != i {
				t.Errorf("trip %d: segment index %d != %d", trip.ID, s.Index, i)
			}
			if len(s.Nodes) < 2 {
				t.Errorf("trip %d: segment %d has %d nodes", trip.ID, i, len(s.Nodes))
			}
			total += s.LengthM
		}
		if math.Abs(total-trip.Path.Weight) > 1 {
			t.Errorf("trip %d: segments sum to %.0f m, path weight %.0f m", trip.ID, total, trip.Path.Weight)
		}
		// Non-final segments reach at least the target length; all bounded
		// by target + longest edge (~spacing·2).
		for i, s := range segs[:len(segs)-1] {
			if s.LengthM < 4000 {
				t.Errorf("trip %d: segment %d only %.0f m", trip.ID, i, s.LengthM)
			}
		}
	}
}

func TestSegmentETAsMonotone(t *testing.T) {
	g := smallGraph(t)
	trips := genTrips(t, g, 5)
	for _, trip := range trips {
		segs := SegmentTrip(g, trip, 3000)
		prev := trip.Depart.Add(-time.Second)
		for _, s := range segs {
			if s.ETA.Before(prev) {
				t.Fatalf("trip %d: ETA went backwards at segment %d", trip.ID, s.Index)
			}
			if s.ETA.Before(trip.Depart) {
				t.Fatalf("trip %d: ETA before departure", trip.ID)
			}
			prev = s.ETA
		}
	}
}

func TestSegmentTripDegenerate(t *testing.T) {
	g := smallGraph(t)
	trip := Trip{ID: 1, Path: roadnet.Path{Nodes: []roadnet.NodeID{3}}, Depart: t0}
	if segs := SegmentTrip(g, trip, 4000); segs != nil {
		t.Errorf("single-node trip segmented: %v", segs)
	}
	// Short two-node trip yields exactly one segment.
	trips := genTrips(t, g, 1)
	segs := SegmentTrip(g, trips[0], 1e9)
	if len(segs) != 1 {
		t.Errorf("huge segment length produced %d segments", len(segs))
	}
}

func TestProfiles(t *testing.T) {
	ps := Profiles()
	if len(ps) != 4 {
		t.Fatalf("got %d profiles", len(ps))
	}
	wantNames := []string{"Oldenburg", "California", "T-drive", "Geolife"}
	for i, p := range ps {
		if p.Name != wantNames[i] {
			t.Errorf("profile %d = %q, want %q", i, p.Name, wantNames[i])
		}
		if p.FullTrips <= 0 || p.Chargers <= 0 {
			t.Errorf("profile %s has zero sizes", p.Name)
		}
	}
	if _, err := ProfileByName("Oldenburg"); err != nil {
		t.Errorf("ProfileByName(Oldenburg): %v", err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestProfilesGenerateSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("profile generation is slow")
	}
	for _, p := range Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			g := p.BuildGraph(1)
			if g.NumNodes() == 0 {
				t.Fatal("empty graph")
			}
			trips, err := p.GenerateTrips(g, 0.002, 3, t0)
			if err != nil {
				t.Fatalf("GenerateTrips: %v", err)
			}
			if len(trips) == 0 {
				t.Fatal("no trips")
			}
			for _, trip := range trips {
				if len(SegmentTrip(g, trip, 4000)) == 0 {
					t.Fatalf("trip %d produced no segments", trip.ID)
				}
			}
		})
	}
}

func TestTDriveHotspotBias(t *testing.T) {
	p, _ := ProfileByName("T-drive")
	g := p.BuildGraph(1)
	trips, err := p.GenerateTrips(g, 0.005, 3, t0) // ~51 trips
	if err != nil {
		t.Fatalf("GenerateTrips: %v", err)
	}
	// With 60% hotspot bias over 6 hotspots, endpoint reuse must be high:
	// count distinct endpoints; biased generation reuses nodes heavily.
	endpoints := map[roadnet.NodeID]int{}
	for _, trip := range trips {
		endpoints[trip.Path.Nodes[0]]++
		endpoints[trip.Path.Nodes[len(trip.Path.Nodes)-1]]++
	}
	maxReuse := 0
	for _, c := range endpoints {
		if c > maxReuse {
			maxReuse = c
		}
	}
	if maxReuse < 3 {
		t.Errorf("hotspot bias missing: max endpoint reuse %d", maxReuse)
	}
}
