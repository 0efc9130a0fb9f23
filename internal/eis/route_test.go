package eis

// The shard's side of a trip routed once: the route a fleet gateway sends
// with a binary trip request (wire.TripOfferingRequest.Route), the checks
// TripOffering.Follow holds it to, and what the handler does when it refuses.

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"testing"
	"time"

	"ecocharge/internal/geo"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/wire"
)

// waypointsOn are n waypoints at the nodes of a long shortest path of g,
// its ends included, evenly spaced along it.
func waypointsOn(t testing.TB, g *roadnet.Graph, n int) []LatLon {
	t.Helper()
	b := g.Bounds()
	from, to := g.NearestNode(b.Min), g.NearestNode(b.Max)
	p, ok := g.ShortestPath(from, to, roadnet.DistanceWeight)
	if !ok || len(p.Nodes) < 4*n {
		t.Fatalf("the corners route over %d nodes (%v)", len(p.Nodes), ok)
	}
	out := make([]LatLon, n)
	for i := range out {
		at := g.Node(p.Nodes[(len(p.Nodes)-1)*i/(n-1)]).P
		out[i] = LatLon{Lat: at.Lat, Lon: at.Lon}
	}
	return out
}

// routed resolves and routes req as a shard does without a route.
func routed(t testing.TB, g *roadnet.Graph, req *TripOfferingRequest) (TripOffering, []roadnet.NodeID, float64) {
	t.Helper()
	to, err := ResolveTripOffering(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	trip, _, err := to.Route(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	return to, trip.Path.Nodes, trip.Path.Weight
}

// leg is the shortest path from a to b.
func leg(t *testing.T, g *roadnet.Graph, a, b roadnet.NodeID) []roadnet.NodeID {
	t.Helper()
	p, ok := g.ShortestPath(a, b, roadnet.DistanceWeight)
	if !ok {
		t.Fatalf("no path %d→%d", a, b)
	}
	return p.Nodes
}

// join concatenates paths that end where the next starts.
func join(paths ...[]roadnet.NodeID) []roadnet.NodeID {
	out := slices.Clone(paths[0])
	for _, p := range paths[1:] {
		out = append(out, p[1:]...)
	}
	return out
}

// neighbour is a node one arc away from n.
func neighbour(g *roadnet.Graph, n roadnet.NodeID) roadnet.NodeID {
	out := roadnet.Invalid
	g.OutEdges(n, func(e roadnet.Edge) {
		if out == roadnet.Invalid && e.To != n {
			out = e.To
		}
	})
	return out
}

// TestTripRouteRefusals: a route the gateway's plan would give is followed —
// no shortest-path search, the trip length derived to Route's bits, the
// counter says used. A route that breaks any one of Follow's rules is refused
// — the counter says rejected, the shard routes the trip itself — and the
// answer is, byte for byte, the one the request gets without a route.
func TestTripRouteRefusals(t *testing.T) {
	env := testEnv(t)
	g := env.Graph
	h := NewServer(env, ServerOptions{Clock: func() time.Time { return fixedNow }}).Handler()
	// A Z across the map: bottom left, top left, bottom right, top right, so
	// that the way from one waypoint to the one after next passes neither.
	b := g.Bounds()
	at := func(fLat, fLon float64) LatLon {
		return LatLon{Lat: b.Min.Lat + fLat*(b.Max.Lat-b.Min.Lat), Lon: b.Min.Lon + fLon*(b.Max.Lon-b.Min.Lon)}
	}
	req := TripOfferingRequest{
		Waypoints: []LatLon{at(0.1, 0.1), at(0.9, 0.1), at(0.1, 0.9), at(0.9, 0.9)},
		Depart:    fixedNow, K: 4, RadiusM: 8000, ReuseDistM: 2500, SegmentLenM: 1500,
		Weights: WeightsJSON{L: 2, A: 1, D: 1},
	}
	to, route, length := routed(t, g, &req)
	blocks := tripBlocksFor(t, env, &req)
	// The blocks are built on through search states of their own: what the
	// request without a route takes of them is its legs' and the blocks'.
	searches0 := obsCounter("roadnet_pool_acquires_total")
	plain := postTrip(t, h, wire.ContentType, encodeTrip(&req, blocks))
	if plain.Code != http.StatusOK {
		t.Fatalf("the request without a route: %d %s", plain.Code, plain.Body)
	}
	routing := obsCounter("roadnet_pool_acquires_total") - searches0
	if trip, ok := to.Follow(g, route); !ok || math.Float64bits(trip.Path.Weight) != math.Float64bits(length) || !slices.Equal(trip.Path.Nodes, route) {
		t.Fatalf("Follow on Route's own route: %v, %v m over %d nodes; Route: %v m over %d", ok, trip.Path.Weight, len(trip.Path.Nodes), length, len(route))
	}

	w := make([]roadnet.NodeID, len(to.Waypoints))
	for i, p := range to.Waypoints {
		w[i] = g.NearestNode(p)
	}
	skipped := join(leg(t, g, w[0], w[2]), leg(t, g, w[2], w[3]))
	if slices.Contains(skipped, w[1]) {
		t.Fatal("the way past waypoint 1 passes it; pick other waypoints")
	}
	backwards := [][]roadnet.NodeID{leg(t, g, w[0], w[2]), leg(t, g, w[2], w[1]), leg(t, g, w[1], w[3])}
	if slices.Contains(backwards[0], w[1]) || slices.Contains(backwards[2], w[2]) {
		t.Fatal("the way through the waypoints out of order passes them in order; pick other waypoints")
	}
	noArc := slices.Clone(route)
	for i := 1; ; i++ {
		if i+1 == len(route) {
			t.Fatal("every node of the route can be skipped by an arc")
		}
		if _, arc := g.PathWeight([]roadnet.NodeID{route[i-1], route[i+1]}, roadnet.DistanceWeight); !arc && !slices.Contains(w, route[i]) {
			noArc = slices.Delete(noArc, i, i+1)
			break
		}
	}
	for _, tc := range []struct {
		name  string
		route []roadnet.NodeID
	}{
		{"wrong first node", append([]roadnet.NodeID{neighbour(g, route[0])}, route...)},
		{"wrong last node", append(slices.Clone(route), neighbour(g, route[len(route)-1]))},
		{"a skipped waypoint", skipped},
		{"waypoints out of order", join(backwards...)},
		{"a step that is not an arc", noArc},
		{"a node out of range", slices.Insert(slices.Clone(route), len(route)/2, roadnet.NodeID(g.NumNodes()))},
		{"a single node", route[:1]},
		{"no node", []roadnet.NodeID{}},
	} {
		with := req
		with.Route = tc.route
		used0, rejected0, searches0 := met.routeUsed.Value(), met.routeRejected.Value(), obsCounter("roadnet_pool_acquires_total")
		rec := postTrip(t, h, wire.ContentType, encodeTrip(&with, blocks))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), plain.Body.Bytes()) {
			t.Errorf("%s: %d, the body differs from the one the request without a route gets", tc.name, rec.Code)
		}
		if u, r := met.routeUsed.Value()-used0, met.routeRejected.Value()-rejected0; u != 0 || r != 1 {
			t.Errorf("%s: used +%d rejected +%d, want +0 and +1", tc.name, u, r)
		}
		// Refused, the trip is routed here: a search a leg.
		if n := obsCounter("roadnet_pool_acquires_total") - searches0; n != routing {
			t.Errorf("%s: %d search states taken, want the %d of the request without a route", tc.name, n, routing)
		}
	}

	with := req
	with.Route = route
	used0, rejected0, searches0 := met.routeUsed.Value(), met.routeRejected.Value(), obsCounter("roadnet_pool_acquires_total")
	rec := postTrip(t, h, wire.ContentType, encodeTrip(&with, blocks))
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), plain.Body.Bytes()) {
		t.Fatalf("the plan's own route: %d, the body differs from the one the request without a route gets", rec.Code)
	}
	legs := uint64(len(w) - 1)
	if u, r, n := met.routeUsed.Value()-used0, met.routeRejected.Value()-rejected0, obsCounter("roadnet_pool_acquires_total")-searches0; u != 1 || r != 0 || n != routing-legs {
		t.Fatalf("the plan's own route: used +%d rejected +%d after %d search states, want +1, +0 after %d: no leg's", u, r, n, routing-legs)
	}
}

// TestFollowDerivesRoutesLength: on every trip Route plans — two to six
// waypoints anywhere on the map, some snapping to one node — Follow accepts
// the route and derives the trip Route built, its length to the bit.
func TestFollowDerivesRoutesLength(t *testing.T) {
	g := testEnv(t).Graph
	b := g.Bounds()
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		req := TripOfferingRequest{Depart: fixedNow}
		for i := 0; i < 2+rng.Intn(5); i++ {
			p := geo.Point{Lat: b.Min.Lat + rng.Float64()*(b.Max.Lat-b.Min.Lat), Lon: b.Min.Lon + rng.Float64()*(b.Max.Lon-b.Min.Lon)}
			if i > 0 && rng.Intn(5) == 0 {
				p = geo.Point{Lat: req.Waypoints[i-1].Lat, Lon: req.Waypoints[i-1].Lon} // snaps where the one before did
			}
			req.Waypoints = append(req.Waypoints, LatLon{Lat: p.Lat, Lon: p.Lon})
		}
		to, err := ResolveTripOffering(&req, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := to.Route(context.Background(), g)
		if err != nil {
			continue // every waypoint snapped to one node
		}
		got, ok := to.Follow(g, want.Path.Nodes)
		if !ok || math.Float64bits(got.Path.Weight) != math.Float64bits(want.Path.Weight) || !slices.Equal(got.Path.Nodes, want.Path.Nodes) ||
			got.ID != want.ID || !got.Depart.Equal(want.Depart) {
			t.Fatalf("trial %d, %d waypoints: Follow %v gave %v m over %d nodes, Route %v m over %d",
				trial, len(req.Waypoints), ok, got.Path.Weight, len(got.Path.Nodes), want.Path.Weight, len(want.Path.Nodes))
		}
	}
}

// routeBytes encodes a node sequence as FuzzTripRoute reads one: two bytes a
// node, little-endian and signed, so that fuzzed bytes reach nodes the graph
// does not have, negative ones included.
func routeBytes(nodes []roadnet.NodeID) []byte {
	b := make([]byte, 0, 2*len(nodes))
	for _, n := range nodes {
		b = binary.LittleEndian.AppendUint16(b, uint16(int16(n)))
	}
	return b
}

// FuzzTripRoute holds Follow to its contract on arbitrary node sequences
// against routed trips of a small world: it refuses, and the handler then
// answers as it answers the request without a route; or it accepts, and then
// only a sequence that starts and ends at the snaps of the end waypoints,
// every step of which is an arc, and whose derived length is what its legs —
// split where the sequence next reaches each waypoint — sum to, each from 0
// at its cheapest arcs, added in order.
func FuzzTripRoute(f *testing.F) {
	env := testEnv(f)
	g := env.Graph
	h := NewServer(env, ServerOptions{Clock: func() time.Time { return fixedNow }}).Handler()
	type routedTrip struct {
		req   TripOfferingRequest
		to    TripOffering
		snaps []roadnet.NodeID
		plain []byte
	}
	var trips []routedTrip
	for n := 2; n <= 5; n++ {
		rt := routedTrip{req: TripOfferingRequest{Waypoints: waypointsOn(f, g, n), Depart: fixedNow, K: 3, RadiusM: 5000, SegmentLenM: 2000}}
		to, route, _ := routed(f, g, &rt.req)
		rt.to = to
		for _, p := range to.Waypoints {
			if s := g.NearestNode(p); len(rt.snaps) == 0 || s != rt.snaps[len(rt.snaps)-1] {
				rt.snaps = append(rt.snaps, s)
			}
		}
		rec := postTrip(f, h, wire.ContentType, wire.AppendTripRequest(nil, &rt.req))
		if rec.Code != http.StatusOK {
			f.Fatalf("trip of %d waypoints: %d %s", n, rec.Code, rec.Body)
		}
		rt.plain = rec.Body.Bytes()
		trips = append(trips, rt)
		i := uint8(len(trips) - 1)
		f.Add(i, routeBytes(route))
		// A detour out to a neighbour and back: every step an arc, no longer
		// the shortest — accepted, the one thing no check can see.
		mid := route[len(route)/2]
		f.Add(i, routeBytes(slices.Insert(slices.Clone(route), len(route)/2+1, neighbour(g, mid), mid)))
		f.Add(i, routeBytes(route[:len(route)-1]))
		f.Add(i, routeBytes(slices.Concat(route, []roadnet.NodeID{-1})))
	}
	f.Add(uint8(0), []byte{})

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		rt := &trips[int(which)%len(trips)]
		route := make([]roadnet.NodeID, len(data)/2)
		for i := range route {
			route[i] = roadnet.NodeID(int16(binary.LittleEndian.Uint16(data[2*i:])))
		}
		trip, ok := rt.to.Follow(g, route)
		if !ok {
			if slices.ContainsFunc(route, func(n roadnet.NodeID) bool { return n < 0 }) {
				return // the decoder refuses these before the handler sees them
			}
			with := rt.req
			with.Route = route
			if rec := postTrip(t, h, wire.ContentType, wire.AppendTripRequest(nil, &with)); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), rt.plain) {
				t.Fatalf("refused route %v: answered %d, not as without a route", route, rec.Code)
			}
			return
		}
		if len(route) < 2 || route[0] != rt.snaps[0] || route[len(route)-1] != rt.snaps[len(rt.snaps)-1] {
			t.Fatalf("accepted %v, which does not run from snap %d to snap %d", route, rt.snaps[0], rt.snaps[len(rt.snaps)-1])
		}
		// The legs, each from 0 at its cheapest arcs, read off the graph's
		// edge list and not through PathWeight.
		var total, legSum float64
		next := 1
		for i := 1; i < len(route); i++ {
			cheapest, arc := 0.0, false
			g.OutEdges(route[i-1], func(e roadnet.Edge) {
				if e.To == route[i] && (!arc || e.Length < cheapest) {
					cheapest, arc = e.Length, true
				}
			})
			if !arc {
				t.Fatalf("accepted %v, whose step %d→%d is not an arc", route, route[i-1], route[i])
			}
			legSum += cheapest
			if next < len(rt.snaps) && route[i] == rt.snaps[next] && (next < len(rt.snaps)-1 || i == len(route)-1) {
				total, legSum, next = total+legSum, 0, next+1
			}
		}
		if next != len(rt.snaps) || math.Float64bits(trip.Path.Weight) != math.Float64bits(total) || !slices.Equal(trip.Path.Nodes, route) {
			t.Fatalf("accepted %v as %v m, its legs sum to %v m (%d of %d waypoints passed)", route, trip.Path.Weight, total, next, len(rt.snaps))
		}
	})
}
