package eis

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"time"

	"ecocharge/internal/cknn"
	"ecocharge/internal/geo"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/trajectory"
)

// Offering is a Mode 2 request as the server ranks it: the decoded request
// with the server's defaults in place. The shard and the fleet gateway both
// get it from ResolveOffering, so they cannot disagree on what a request
// asks for.
type Offering struct {
	P       geo.Point
	K       int
	RadiusM float64
	// Weights are the client's, or the paper's equal weights when it sent
	// none; the ranking normalises them.
	Weights cknn.Weights
	// Now is when the estimate is issued, ETA the arrival at P.
	Now, ETA time.Time
}

// ResolveOffering applies the server's defaulting and validation to a decoded
// request; the error is the 400 a server answers with. clock supplies the
// issue time of a request that carries none, and is not called otherwise.
func ResolveOffering(req *OfferingRequest, clock func() time.Time) (Offering, error) {
	o := Offering{P: geo.Point{Lat: req.Lat, Lon: req.Lon}, Now: req.Now, ETA: req.ETA}
	if !o.P.Valid() {
		return o, fmt.Errorf("invalid location (%v, %v)", req.Lat, req.Lon)
	}
	var err error
	if o.K, o.RadiusM, o.Weights, err = rankingDefaults(req.K, req.RadiusM, req.Weights); err != nil {
		return o, err
	}
	if o.Now.IsZero() {
		o.Now = clock()
	}
	if o.ETA.IsZero() {
		o.ETA = o.Now
	}
	return o, nil
}

// rankingDefaults resolves what every Mode 2 ranking, one-shot or per trip
// segment, takes from its request: k (3), R (50 km) and the weights (the
// paper's equal weights when the client sent none; the ranking normalises
// them).
func rankingDefaults(k int, radiusM float64, w WeightsJSON) (int, float64, cknn.Weights, error) {
	if k <= 0 {
		k = 3
	}
	if radiusM <= 0 {
		radiusM = 50000
	}
	weights := cknn.Weights{L: w.L, A: w.A, D: w.D}
	if weights == (cknn.Weights{}) {
		weights = cknn.EqualWeights()
	}
	return k, radiusM, weights, weights.Validate()
}

// Query is the CkNN-EC query of the offering: a ranking around P that starts
// from and returns to node, the road node P snaps to.
func (o *Offering) Query(node roadnet.NodeID) cknn.Query {
	return cknn.Query{
		Anchor: o.P, AnchorNode: node, ReturnNode: node,
		Now: o.Now, ETABase: o.ETA,
		K: o.K, RadiusM: o.RadiusM, Weights: o.Weights,
	}
}

// maxTripWaypoints bounds the waypoints of one trip request. Every waypoint
// is a nearest-node snap and every leg a shortest-path search, and the 1 MB
// body limit alone admits some 43 000 of them; 256 is fifty times what the
// benchmark's trips carry.
const maxTripWaypoints = 256

// TripOffering is a whole-trip Mode 2 request as the server ranks it: the
// decoded request with the server's defaults in place. Like Offering, the
// shard and the fleet gateway both get it from its resolver.
type TripOffering struct {
	Waypoints   []geo.Point
	Depart      time.Time
	K           int
	RadiusM     float64
	ReuseDistM  float64
	SegmentLenM float64
	Weights     cknn.Weights
}

// ResolveTripOffering applies the server's defaulting and validation to a
// decoded trip request; the error is the 400 a server answers with. clock
// supplies the departure of a request that carries none.
func ResolveTripOffering(req *TripOfferingRequest, clock func() time.Time) (TripOffering, error) {
	t := TripOffering{Depart: req.Depart, ReuseDistM: req.ReuseDistM, SegmentLenM: req.SegmentLenM}
	if len(req.Waypoints) < 2 {
		return t, fmt.Errorf("need at least 2 waypoints, got %d", len(req.Waypoints))
	}
	if len(req.Waypoints) > maxTripWaypoints {
		return t, fmt.Errorf("need at most %d waypoints, got %d", maxTripWaypoints, len(req.Waypoints))
	}
	var err error
	if t.K, t.RadiusM, t.Weights, err = rankingDefaults(req.K, req.RadiusM, req.Weights); err != nil {
		return t, err
	}
	if t.SegmentLenM <= 0 {
		t.SegmentLenM = 4000
	}
	if t.Depart.IsZero() {
		t.Depart = clock()
	}
	t.Waypoints = make([]geo.Point, len(req.Waypoints))
	for i, wp := range req.Waypoints {
		t.Waypoints[i] = geo.Point{Lat: wp.Lat, Lon: wp.Lon}
		if !t.Waypoints[i].Valid() {
			return t, fmt.Errorf("waypoint %d invalid: (%v, %v)", i, wp.Lat, wp.Lon)
		}
	}
	return t, nil
}

// Route snaps the trip's waypoints to the road network and routes them leg by
// leg, under ctx: a leg is a shortest-path search, and nobody reads the
// answer of an expired trip. A trip that does not route comes back with the
// status a server answers it with — 503 for a deadline that ran out, when err
// is the context's. The fleet gateway routes through here, and so does a
// shard that was sent no route or refused the one it was sent (Follow), so
// they plan the same trip.
func (t *TripOffering) Route(ctx context.Context, g *roadnet.Graph) (trip trajectory.Trip, status int, err error) {
	var nodes []roadnet.NodeID
	var total float64
	for i, p := range t.Waypoints {
		if err := ctx.Err(); err != nil {
			return trip, http.StatusServiceUnavailable, err
		}
		n := g.NearestNode(p)
		if n == roadnet.Invalid {
			return trip, http.StatusUnprocessableEntity, fmt.Errorf("waypoint %d not on the road network", i)
		}
		if len(nodes) == 0 {
			nodes = append(nodes, n)
			continue
		}
		if n == nodes[len(nodes)-1] {
			continue
		}
		leg, ok := g.ShortestPath(nodes[len(nodes)-1], n, roadnet.DistanceWeight)
		if !ok {
			return trip, http.StatusUnprocessableEntity, fmt.Errorf("waypoint %d unreachable from previous", i)
		}
		nodes = append(nodes, leg.Nodes[1:]...)
		total += leg.Weight
	}
	if len(nodes) < 2 {
		return trip, http.StatusBadRequest, fmt.Errorf("waypoints collapse to a single road node")
	}
	if err := ctx.Err(); err != nil {
		return trip, http.StatusServiceUnavailable, err
	}
	return t.trip(nodes, total), 0, nil
}

// Follow builds the trip Route plans from a route planned elsewhere — by a
// fleet gateway, through Route, on the same road world — if the route passes
// every check that takes no search. These are the rules a route is refused
// by, here and nowhere else:
//
//   - it has fewer than two nodes, or a node the graph does not have;
//   - it does not start at this server's snap of the first waypoint or does
//     not end at its snap of the last;
//   - it does not pass the snap of every waypoint in order, a waypoint that
//     snaps where the one before it did counting once, as in Route;
//   - a step is not an arc of the graph.
//
// The trip's length is derived from the route, never read off the wire: leg
// by leg, each priced from 0 at its cheapest arcs (roadnet.Graph.PathWeight),
// the legs added in order — the bits Route adds ShortestPath's weights to. A
// leg ends where the route next reaches its waypoint, which on a route Route
// planned is where the leg's shortest path ends: a shortest path reaches its
// end once. What no check short of the search can tell is whether each leg
// is a shortest path; like the travel times of a block, that rests on the
// sender searching this server's road world, which a gateway verifies
// (cknn.Env.RoadWorld) before it sends either. Follow reports false for a
// route it refuses; the caller then routes the trip itself.
func (t *TripOffering) Follow(g *roadnet.Graph, route []roadnet.NodeID) (trajectory.Trip, bool) {
	if len(route) < 2 {
		return trajectory.Trip{}, false
	}
	var total float64
	at, prev := 0, roadnet.Invalid // where the last leg ended, at which waypoint's snap
	for i, p := range t.Waypoints {
		n := g.NearestNode(p)
		if n == roadnet.Invalid || (i == 0 && route[0] != n) {
			return trajectory.Trip{}, false
		}
		if i == 0 || n == prev {
			prev = n
			continue
		}
		end := len(route) - 1
		if i < len(t.Waypoints)-1 {
			next := slices.Index(route[at+1:], n)
			if next < 0 {
				return trajectory.Trip{}, false
			}
			end = at + 1 + next
		}
		leg, ok := g.PathWeight(route[at:end+1], roadnet.DistanceWeight)
		if route[end] != n || !ok {
			return trajectory.Trip{}, false
		}
		total += leg
		at, prev = end, n
	}
	if at != len(route)-1 {
		return trajectory.Trip{}, false // a single snap, or a route past the last waypoint
	}
	return t.trip(route, total), true
}

// trip is the planned trip over the route's nodes: Route's and Follow's.
func (t *TripOffering) trip(nodes []roadnet.NodeID, lengthM float64) trajectory.Trip {
	return trajectory.Trip{ID: 1, Path: roadnet.Path{Nodes: nodes, Weight: lengthM}, Depart: t.Depart}
}

// Plan returns the options the trip's segments are ranked under: the method's
// and the evaluation's (its worker bound is the server's to set).
func (t *TripOffering) Plan() (cknn.EcoChargeOptions, cknn.TripOptions) {
	return cknn.EcoChargeOptions{RadiusM: t.RadiusM, ReuseDistM: t.ReuseDistM},
		cknn.TripOptions{K: t.K, SegmentLenM: t.SegmentLenM, RadiusM: t.RadiusM, Weights: t.Weights}
}

// cacheKey names one response-cache entry: the cell the request lands in
// and every parameter the table depends on. The weights are the ones the
// ranking uses — normalised — so {1,1,1}, {2,2,2} and no weights at all
// share the entry of the one table they all get.
type cacheKey struct {
	cellLat, cellLon int64
	k                int
	radiusM          int64
	weights          WeightsJSON
}

func offeringKey(cellM float64, o *Offering) cacheKey {
	cell := cellM / geo.EarthRadius * 180 / math.Pi // degrees
	w := o.Weights.Normalized()
	return cacheKey{
		cellLat: int64(math.Floor(o.P.Lat / cell)),
		cellLon: int64(math.Floor(o.P.Lon / cell)),
		k:       o.K,
		radiusM: int64(o.RadiusM),
		weights: WeightsJSON{L: w.L, A: w.A, D: w.D},
	}
}

// hash is FNV-1a over the key's fixed-width fields.
func (key cacheKey) hash() uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, v := range [...]uint64{
		uint64(key.cellLat), uint64(key.cellLon),
		uint64(key.k), uint64(key.radiusM),
		math.Float64bits(key.weights.L),
		math.Float64bits(key.weights.A),
		math.Float64bits(key.weights.D),
	} {
		h ^= v
		h *= 1099511628211 // FNV-1a prime
	}
	return h
}

// CacheTerms is what a server's response cache keys and keeps entries by,
// and which road world its rankings search. A shard states them in headers of
// its /inventory answer; the fleet gateway, which pulls that answer anyway,
// learns from them which of its requests the shard will find cached.
type CacheTerms struct {
	CellM float64
	TTL   time.Duration
	// World is cknn.Env.RoadWorld of the server's environment.
	World uint64
}

const (
	headerCacheCell = "X-Eis-Cache-Cell-M"
	headerCacheTTL  = "X-Eis-Cache-Ttl"
	headerWorld     = "X-Eis-Road-World"
)

func (t CacheTerms) set(h http.Header) {
	h.Set(headerCacheCell, strconv.FormatFloat(t.CellM, 'g', -1, 64))
	h.Set(headerCacheTTL, t.TTL.String())
	h.Set(headerWorld, strconv.FormatUint(t.World, 16))
}

// CacheTermsFrom reads the terms a server stated in the headers of its
// /inventory answer; ok is false when it stated none it could have meant.
func CacheTermsFrom(h http.Header) (t CacheTerms, ok bool) {
	var err1, err2, err3 error
	t.CellM, err1 = strconv.ParseFloat(h.Get(headerCacheCell), 64)
	t.TTL, err2 = time.ParseDuration(h.Get(headerCacheTTL))
	t.World, err3 = strconv.ParseUint(h.Get(headerWorld), 16, 64)
	return t, err1 == nil && err2 == nil && err3 == nil && t.CellM > 0 && t.TTL > 0
}

// KeyHash is the hash of the response-cache key a server with these terms
// files the request under: the same function the server's own cache runs, so
// a gateway that remembers what it sent where cannot drift from it.
func (t CacheTerms) KeyHash(o *Offering) uint64 { return offeringKey(t.CellM, o).hash() }
