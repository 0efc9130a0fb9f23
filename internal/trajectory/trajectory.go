// Package trajectory provides scheduled trips P on a road network, their
// partitioning into path segments p (paper §III.A step 1), and the
// network-based moving-object generators that stand in for the Oldenburg,
// California, T-drive and Geolife trajectory datasets (see DESIGN.md).
package trajectory

import (
	"time"

	"ecocharge/internal/geo"
	"ecocharge/internal/roadnet"
)

// Trip is a scheduled trip P: a shortest path on the road network with a
// departure time. All EcoCharge queries run against trips.
type Trip struct {
	ID     int64
	Path   roadnet.Path
	Depart time.Time
}

// Segment is one path segment p_i of a partitioned trip. Anchor is the
// representative query point of the segment (its midpoint node position),
// ETA the estimated arrival at the anchor under free-flow driving.
type Segment struct {
	Index      int
	Nodes      []roadnet.NodeID
	Start, End geo.Point
	LengthM    float64
	Anchor     geo.Point
	AnchorNode roadnet.NodeID
	ETA        time.Time
}

// SegmentTrip partitions the trip into segments of approximately segLenM
// meters (the paper's ≈3–5 km default; the caller chooses). ETAs use the
// free-flow time weight of the underlying edges. A trip shorter than one
// segment yields a single segment. It returns nil for degenerate trips
// (fewer than 2 nodes).
func SegmentTrip(g *roadnet.Graph, trip Trip, segLenM float64) []Segment {
	nodes := trip.Path.Nodes
	if len(nodes) < 2 {
		return nil
	}
	if segLenM <= 0 {
		segLenM = 4000
	}
	var segs []Segment
	cur := Segment{Index: 0, Start: g.Node(nodes[0]).P}
	cur.Nodes = append(cur.Nodes, nodes[0])
	elapsed := time.Duration(0)
	segStartElapsed := elapsed

	flush := func(endNode roadnet.NodeID) {
		cur.End = g.Node(endNode).P
		mid := cur.Nodes[len(cur.Nodes)/2]
		cur.Anchor = g.Node(mid).P
		cur.AnchorNode = mid
		// ETA at the segment anchor: halfway between start and end times.
		half := segStartElapsed + (elapsed-segStartElapsed)/2
		cur.ETA = trip.Depart.Add(half)
		segs = append(segs, cur)
	}

	for i := 1; i < len(nodes); i++ {
		prev, next := nodes[i-1], nodes[i]
		var length float64
		var travel time.Duration
		found := false
		g.OutEdges(prev, func(e roadnet.Edge) {
			if e.To == next && !found {
				length = e.Length
				travel = time.Duration(roadnet.TimeWeight(e) * float64(time.Second))
				found = true
			}
		})
		if !found {
			// Path node pair without a direct edge (should not happen for
			// shortest paths); fall back to geodesic distance at 50 km/h.
			length = geo.Distance(g.Node(prev).P, g.Node(next).P)
			travel = time.Duration(length / (50.0 / 3.6) * float64(time.Second))
		}
		cur.LengthM += length
		elapsed += travel
		cur.Nodes = append(cur.Nodes, next)
		if cur.LengthM >= segLenM && i < len(nodes)-1 {
			flush(next)
			cur = Segment{Index: len(segs), Start: g.Node(next).P}
			cur.Nodes = append(cur.Nodes, next)
			segStartElapsed = elapsed
		}
	}
	flush(nodes[len(nodes)-1])
	return segs
}

// GenConfig parameterizes trip generation: random origin/destination pairs
// with shortest-path routing, the essence of the Brinkhoff network-based
// moving-object generator.
type GenConfig struct {
	N         int // number of trips
	Seed      int64
	MinTripKM float64       // reject OD pairs with shorter shortest paths
	MaxTripKM float64       // resample destinations with longer paths (0 = unlimited)
	Start     time.Time     // departure window start
	Window    time.Duration // departures uniform in [Start, Start+Window)
	// HotspotFrac of trips start or end at one of a few hotspot nodes
	// (downtown bias of the taxi datasets). 0 disables.
	HotspotFrac float64
	Hotspots    int
}

// Generate builds N trips on the graph. It returns an error when the graph
// is too small or too disconnected to satisfy the constraints after a
// bounded number of attempts per trip. It is a collector over Sampler, so
// generated slices and streamed trips are byte-identical for a given
// config (TestSamplerMatchesGenerate pins this).
func Generate(g *roadnet.Graph, cfg GenConfig) ([]Trip, error) {
	s, err := NewSampler(g, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.N <= 0 {
		return nil, nil
	}
	trips := make([]Trip, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		trip, err := s.Next()
		if err != nil {
			return nil, err
		}
		trips = append(trips, trip)
	}
	return trips, nil
}
