package eis

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"time"

	"ecocharge/internal/cknn"
	"ecocharge/internal/roadnet"
	"ecocharge/internal/trajectory"
)

// LatLon is a wire waypoint.
type LatLon struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
}

// TripOfferingRequest asks the EIS to evaluate a whole scheduled trip: the
// waypoints are snapped to the road network, routed with shortest paths,
// partitioned into segments, and each segment gets an Offering Table — the
// full Mode 2 form of the continuous CkNN-EC query.
type TripOfferingRequest struct {
	Waypoints []LatLon  `json:"waypoints"`
	Depart    time.Time `json:"depart"`
	K         int       `json:"k"`
	RadiusM   float64   `json:"radius_m"`
	// ReuseDistM is the dynamic-cache Q used across the trip's segments.
	ReuseDistM  float64     `json:"reuse_dist_m"`
	SegmentLenM float64     `json:"segment_len_m"`
	Weights     WeightsJSON `json:"weights"`
}

// SegmentOffering is one per-segment result of a trip evaluation.
type SegmentOffering struct {
	SegmentIndex int             `json:"segment_index"`
	Anchor       LatLon          `json:"anchor"`
	ETA          time.Time       `json:"eta"`
	LengthM      float64         `json:"length_m"`
	Adapted      bool            `json:"adapted"` // served by the dynamic cache
	Entries      []OfferingEntry `json:"entries"`
}

// TripOfferingResponse is the whole-trip Mode 2 result.
type TripOfferingResponse struct {
	TripLengthM float64           `json:"trip_length_m"`
	Segments    []SegmentOffering `json:"segments"`
	SplitPoints []int             `json:"split_points"` // segment indexes where the top-k set changes
}

// handleTripOffering implements POST /api/v1/offering/trip.
func (s *Server) handleTripOffering(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req TripOfferingRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	t, err := ResolveTripOffering(&req, s.opts.Clock)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Snap and route the waypoints, under the request deadline: a leg is a
	// shortest-path search, and nobody reads the answer of an expired trip.
	ctx, cancel := s.deadline(r.Context())
	defer cancel()
	var nodes []roadnet.NodeID
	var total float64
	for i, p := range t.Waypoints {
		if err := ctx.Err(); err != nil {
			s.writeExpired(w, "trip offering", err)
			return
		}
		n := s.env.Graph.NearestNode(p)
		if n == roadnet.Invalid {
			s.writeError(w, http.StatusUnprocessableEntity, "waypoint %d not on the road network", i)
			return
		}
		if len(nodes) == 0 {
			nodes = append(nodes, n)
			continue
		}
		if n == nodes[len(nodes)-1] {
			continue
		}
		leg, ok := s.env.Graph.ShortestPath(nodes[len(nodes)-1], n, roadnet.DistanceWeight)
		if !ok {
			s.writeError(w, http.StatusUnprocessableEntity, "waypoint %d unreachable from previous", i)
			return
		}
		nodes = append(nodes, leg.Nodes[1:]...)
		total += leg.Weight
	}
	if len(nodes) < 2 {
		s.writeError(w, http.StatusBadRequest, "waypoints collapse to a single road node")
		return
	}
	if err := ctx.Err(); err != nil {
		s.writeExpired(w, "trip offering", err)
		return
	}

	trip := trajectory.Trip{ID: 1, Path: roadnet.Path{Nodes: nodes, Weight: total}, Depart: t.Depart}
	method := cknn.NewEcoCharge(s.env, cknn.EcoChargeOptions{RadiusM: t.RadiusM, ReuseDistM: t.ReuseDistM})
	results := cknn.RunTrip(s.env, method, trip, cknn.TripOptions{
		K: t.K, SegmentLenM: t.SegmentLenM, RadiusM: t.RadiusM, Weights: t.Weights,
		Workers: s.opts.Workers,
	})

	resp := TripOfferingResponse{TripLengthM: total}
	var prev []int64
	for _, res := range results {
		seg := SegmentOffering{
			SegmentIndex: res.Segment.Index,
			Anchor:       LatLon{Lat: res.Segment.Anchor.Lat, Lon: res.Segment.Anchor.Lon},
			ETA:          res.Segment.ETA,
			LengthM:      res.Segment.LengthM,
			Adapted:      res.Table.Adapted,
		}
		for _, e := range res.Table.Entries {
			seg.Entries = append(seg.Entries, wireEntry(e))
		}
		ids := res.Table.IDs()
		if len(resp.Segments) == 0 || !slices.Equal(prev, ids) {
			resp.SplitPoints = append(resp.SplitPoints, res.Segment.Index)
			prev = ids
		}
		resp.Segments = append(resp.Segments, seg)
	}
	WriteJSON(w, resp)
}

// TripOffering requests a whole-trip evaluation (client side).
func (c *Client) TripOffering(ctx context.Context, req TripOfferingRequest) (TripOfferingResponse, error) {
	var out TripOfferingResponse
	err := c.post(ctx, "/offering/trip", req, &out)
	return out, err
}
