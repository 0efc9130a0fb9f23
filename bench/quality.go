package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ecocharge/internal/cknn"
	"ecocharge/internal/eis"
	"ecocharge/internal/geo"
	"ecocharge/internal/load"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/trajectory"
	"ecocharge/internal/wire"
)

// servedTable is one Offering Table as a client received it, with the
// engine query it answers.
type servedTable struct {
	q   cknn.Query
	ids []int64
}

// qualityResult scores the served tables against ground truth.
type qualityResult struct {
	counts      counts
	tables      int
	planePairs  int     // sample queries answered identically on both planes
	truthServed float64 // Σ TruthSC of the chargers in the served tables
	truthBest   float64 // Σ TruthSC of the brute-force picks, same queries
	bruteUS     []float64
}

// scPct is the paper's SC%: how much of the brute-force optimum's true
// sustainability score the served tables achieve.
func (q qualityResult) scPct() float64 { return 100 * ratio(q.truthServed, q.truthBest) }

// weightsOf applies the server's weight defaulting.
func weightsOf(w wire.WeightsJSON) cknn.Weights {
	if w == (wire.WeightsJSON{}) {
		return cknn.EqualWeights()
	}
	return cknn.Weights{L: w.L, A: w.A, D: w.D}
}

// offeringQuery is the engine query a shard builds for an offering request.
func offeringQuery(env *cknn.Env, o *wire.OfferingRequest) cknn.Query {
	p := geo.Point{Lat: o.Lat, Lon: o.Lon}
	node := env.Graph.NearestNode(p)
	return cknn.Query{
		Anchor: p, AnchorNode: node, ReturnNode: node,
		Now: o.Now, ETABase: o.ETA,
		K: o.K, RadiusM: o.RadiusM, Weights: weightsOf(o.Weights),
	}
}

// tripOf snaps and routes a trip request's waypoints the way the shard
// handler does, returning the trip and the options it is evaluated under.
func tripOf(env *cknn.Env, tr *eis.TripOfferingRequest) (trajectory.Trip, cknn.TripOptions, error) {
	var nodes []roadnet.NodeID
	var total float64
	for i, wp := range tr.Waypoints {
		n := env.Graph.NearestNode(geo.Point{Lat: wp.Lat, Lon: wp.Lon})
		if n == roadnet.Invalid {
			return trajectory.Trip{}, cknn.TripOptions{}, fmt.Errorf("waypoint %d not on the road network", i)
		}
		if len(nodes) == 0 {
			nodes = append(nodes, n)
			continue
		}
		if n == nodes[len(nodes)-1] {
			continue
		}
		leg, ok := env.Graph.ShortestPath(nodes[len(nodes)-1], n, roadnet.DistanceWeight)
		if !ok {
			return trajectory.Trip{}, cknn.TripOptions{}, fmt.Errorf("waypoint %d unreachable from previous", i)
		}
		nodes = append(nodes, leg.Nodes[1:]...)
		total += leg.Weight
	}
	trip := trajectory.Trip{ID: 1, Path: roadnet.Path{Nodes: nodes, Weight: total}, Depart: tr.Depart}
	opts := cknn.TripOptions{K: tr.K, SegmentLenM: tr.SegmentLenM, RadiusM: tr.RadiusM, Weights: weightsOf(tr.Weights)}
	return trip, opts, nil
}

// servedTables pairs the tables of one valid answer with their queries.
func servedTables(env *cknn.Env, r *request, ex exchange) ([]servedTable, error) {
	if !r.isTrip() {
		resp, err := decodeOffering(ex)
		if err != nil {
			return nil, err
		}
		return []servedTable{{q: offeringQuery(env, &r.offering), ids: entryIDs(resp.Entries)}}, nil
	}
	var resp eis.TripOfferingResponse
	if err := json.Unmarshal(ex.body, &resp); err != nil {
		return nil, err
	}
	trip, opts, err := tripOf(env, &r.tripReq)
	if err != nil {
		return nil, err
	}
	segs := trajectory.SegmentTrip(env.Graph, trip, opts.SegmentLenM)
	if len(segs) != len(resp.Segments) {
		return nil, fmt.Errorf("trip answered with %d segments, the request routes to %d", len(resp.Segments), len(segs))
	}
	out := make([]servedTable, len(segs))
	for i, seg := range segs {
		out[i] = servedTable{q: cknn.QueryForSegment(trip, seg, opts), ids: entryIDs(resp.Segments[i].Entries)}
	}
	return out, nil
}

func decodeOffering(ex exchange) (*wire.OfferingResponse, error) {
	var resp wire.OfferingResponse
	if wire.IsWire(ex.header.Get("Content-Type")) {
		return &resp, wire.DecodeOfferingResponse(ex.body, &resp)
	}
	return &resp, json.Unmarshal(ex.body, &resp)
}

func entryIDs(es []wire.OfferingEntry) []int64 {
	ids := make([]int64, len(es))
	for i, e := range es {
		ids[i] = e.ChargerID
	}
	return ids
}

// otherPlane re-encodes an offering request for the plane the workload
// does not use.
func otherPlane(r *request) (*request, error) {
	twin := *r
	plane := load.PlaneJSON
	twin.contentType, twin.accept = "application/json", ""
	if !wire.IsWire(r.contentType) {
		plane = load.PlaneWire
		twin.contentType, twin.accept = wire.ContentType, wire.ContentType
	}
	var err error
	twin.body, err = encodeOffering(&twin.offering, plane)
	return &twin, err
}

// sameTable reports whether two answers decode to the same table. Cached
// is left out: the second answer to a query is by design a cache hit.
func sameTable(a, b *wire.OfferingResponse) bool {
	x, y := *a, *b
	x.Cached, y.Cached = false, false
	return bytes.Equal(wire.AppendOfferingResponse(nil, &x), wire.AppendOfferingResponse(nil, &y))
}

// qualityPass sends the next sample requests one at a time, validates every
// answer, checks that the other plane answers each offering query with the
// same table, and scores the served tables against the brute-force optimum
// on the unsharded environment.
func qualityPass(fx *fixture, n int) (qualityResult, error) {
	var res qualityResult
	env := fx.scen.Env
	var tables []servedTable
	for _, r := range fx.take(n) {
		ex := fx.send(r)
		res.counts.add(ex)
		if ex.outcome != load.OutcomeValid {
			continue
		}
		served, err := servedTables(env, r, ex)
		if err != nil {
			return res, fmt.Errorf("quality pass: %w", err)
		}
		tables = append(tables, served...)
		if r.isTrip() {
			continue // the trip endpoint has one plane
		}
		twin, err := otherPlane(r)
		if err != nil {
			return res, err
		}
		tex := fx.send(twin)
		res.counts.add(tex)
		if tex.outcome != load.OutcomeValid {
			continue
		}
		a, errA := decodeOffering(ex)
		b, errB := decodeOffering(tex)
		if errA != nil || errB != nil || !sameTable(a, b) {
			return res, fmt.Errorf("quality pass: wire and JSON planes answer (%v, %v) with different tables", r.offering.Lat, r.offering.Lon)
		}
		res.planePairs++
	}
	res.tables = len(tables)
	if len(tables) == 0 {
		return res, fmt.Errorf("quality pass: no valid table to score")
	}

	// The oracle is the benchmark's own work; spread it over the cores and
	// fold the per-table sums in table order so the total repeats exactly.
	type score struct{ served, best, bruteUS float64 }
	scores := make([]score, len(tables))
	engine := cknn.Engine{Env: env}
	brute := cknn.NewBruteForce(env)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tables) {
					return
				}
				t := tables[i]
				start := time.Now()
				best := brute.Rank(t.q)
				scores[i].bruteUS = micros(time.Since(start))
				tm := engine.TruthMaps(t.q)
				sum := func(ids []int64) (s float64) {
					for _, id := range ids {
						if c, ok := env.Chargers.ByID(id); ok {
							if v, ok := engine.TruthSC(t.q, tm, c); ok {
								s += v
							}
						}
					}
					return s
				}
				scores[i].served, scores[i].best = sum(t.ids), sum(best.IDs())
			}
		}()
	}
	wg.Wait()
	for _, s := range scores {
		res.truthServed += s.served
		res.truthBest += s.best
		res.bruteUS = append(res.bruteUS, s.bruteUS)
	}
	if res.truthBest <= 0 {
		return res, fmt.Errorf("quality pass: brute-force optimum scores 0, sc_pct cannot be computed")
	}
	return res, nil
}
