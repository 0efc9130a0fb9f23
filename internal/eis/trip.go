package eis

import (
	"context"
	"net/http"
	"slices"

	"ecocharge/internal/cknn"
	"ecocharge/internal/wire"
)

// handleTripOffering implements POST /api/v1/offering/trip. The request is
// JSON or binary, and a fleet gateway's binary request may bring the route
// and the segments' network searches along; the answer is negotiated on its
// own, by Accept, like that of /offering.
func (s *Server) handleTripOffering(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// The travel blocks are read where they arrived: the buffer goes back when
	// the trip is ranked.
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	var req TripOfferingRequest
	err := ReadRequest(w, r, buf)
	if err == nil {
		err = DecodeTrip(r.Header.Get("Content-Type"), buf.B, &req)
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	t, err := ResolveTripOffering(&req, s.opts.Clock)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Follow the route the request brought along, if it passes the checks;
	// else snap and route the waypoints, under the request deadline: a leg is
	// a shortest-path search, and nobody reads the answer of an expired trip.
	trip, followed := t.Follow(s.env.Graph, req.Route)
	switch {
	case followed:
		met.routeUsed.Inc()
	case req.Route != nil:
		met.routeRejected.Inc()
	}
	if !followed {
		ctx, cancel := withTimeout(r.Context(), s.opts.RequestTimeout)
		defer cancel()
		var status int
		trip, status, err = t.Route(ctx, s.env.Graph)
		switch {
		case status == http.StatusServiceUnavailable:
			s.writeError(w, status, "trip offering computation did not finish in time: %v", err)
			return
		case err != nil:
			s.writeError(w, status, "%v", err)
			return
		}
	}

	eco, opts := t.Plan()
	// A block of another road world is refused before the trip runs: its
	// segment searches for itself.
	travel := make([]cknn.SegmentTravel, 0, len(req.Travel))
	for i := range req.Travel {
		if req.Travel[i].World == s.world {
			travel = append(travel, cknn.SegmentTravel{Segment: req.Travel[i].Segment, Travel: travelOf(&req.Travel[i])})
		}
	}
	results, used := cknn.RunTripSupplied(s.env, cknn.NewEcoCharge(s.env, eco), trip, opts, travel)
	met.travelUsed.Add(uint64(used))
	met.travelRejected.Add(uint64(len(req.Travel) - used))

	// Grow leaves the segments of no results nil: "segments":null.
	resp := TripOfferingResponse{TripLengthM: trip.Path.Weight, Segments: slices.Grow([]SegmentOffering(nil), len(results))}
	rows := rowScratch.Get().(*[]OfferingEntry)
	defer putRows(rows)
	for _, res := range results {
		resp.Segments = append(resp.Segments, SegmentOffering{
			SegmentIndex: res.Segment.Index,
			Anchor:       LatLon{Lat: res.Segment.Anchor.Lat, Lon: res.Segment.Anchor.Lon},
			ETA:          res.Segment.ETA,
			LengthM:      res.Segment.LengthM,
			Adapted:      res.Table.Adapted,
			Entries:      appendRows(rows, res.Table.Entries),
		})
	}
	resp.SplitPoints = AppendSplitPoints(nil, resp.Segments)
	Respond(w, r, met, func(b []byte) ([]byte, error) { return wire.AppendTripResponseJSON(b, &resp) },
		func(b []byte) []byte { return wire.AppendTripResponse(b, &resp) })
}

// AppendSplitPoints appends to dst the split points of a trip's segments:
// the index of every segment whose ranked chargers are not the segment
// before's, the first segment's included. It is cknn.SplitList's rule, over
// the tables a shard answers with and a fleet gateway merges.
func AppendSplitPoints(dst []int, segs []SegmentOffering) []int {
	for i := range segs {
		if i == 0 || !slices.EqualFunc(segs[i-1].Entries, segs[i].Entries, sameCharger) {
			dst = append(dst, segs[i].SegmentIndex)
		}
	}
	return dst
}

func sameCharger(a, b OfferingEntry) bool { return a.ChargerID == b.ChargerID }

// TripOffering requests a whole-trip evaluation (client side).
func (c *Client) TripOffering(ctx context.Context, req TripOfferingRequest) (TripOfferingResponse, error) {
	var out TripOfferingResponse
	err := c.post(ctx, "/offering/trip", req, &out)
	return out, err
}
