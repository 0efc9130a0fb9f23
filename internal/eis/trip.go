package eis

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"

	"ecocharge/internal/cknn"
	"ecocharge/internal/wire"
)

// handleTripOffering implements POST /api/v1/offering/trip. The request is
// JSON, or binary from a fleet gateway that routed the trip and ran the
// segments' network searches and sends them along; the answer is negotiated
// on its own, by Accept, like that of /offering.
func (s *Server) handleTripOffering(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	const maxTripBody = 1 << 20
	body := http.MaxBytesReader(w, r.Body, maxTripBody)
	var (
		req TripOfferingRequest
		err error
	)
	if wire.IsWire(r.Header.Get("Content-Type")) {
		// The travel blocks are read where they arrived: the buffer goes back
		// when the trip is ranked.
		buf := wire.GetBuffer()
		defer wire.PutBuffer(buf)
		if n := r.ContentLength; n >= int64(cap(buf.B)) && n <= maxTripBody {
			buf.B = make([]byte, 0, n+1) // room to see the end of the body
		}
		if err = buf.ReadLimit(body, maxTripBody); err == nil {
			err = wire.DecodeTripRequest(buf.B, &req)
		}
	} else {
		err = json.NewDecoder(body).Decode(&req)
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
		ctx, cancel := s.deadline(r.Context())
		defer cancel()
		var status int
		trip, status, err = t.Route(ctx, s.env.Graph)
		switch {
		case status == http.StatusServiceUnavailable:
			s.writeExpired(w, "trip offering", err)
			return
		case err != nil:
			s.writeError(w, status, "%v", err)
			return
		}
	}

	eco, opts := t.Plan()
	travel := make([]cknn.SegmentTravel, len(req.Travel))
	for i := range req.Travel {
		b := &req.Travel[i]
		travel[i] = cknn.SegmentTravel{Segment: b.Segment, Travel: cknn.Travel{
			Anchor: b.Anchor, Return: b.Return, ScaleLo: b.ScaleLo, ScaleHi: b.ScaleHi, Times: b,
		}}
	}
	results, used := cknn.RunTripSupplied(s.env, cknn.NewEcoCharge(s.env, eco), trip, opts, travel)
	met.travelUsed.Add(uint64(used))
	met.travelRejected.Add(uint64(len(travel) - used))

	// Grow leaves the segments of no results nil: "segments":null.
	resp := TripOfferingResponse{TripLengthM: trip.Path.Weight, Segments: slices.Grow([]SegmentOffering(nil), len(results))}
	var prev []int64
	for _, res := range results {
		seg := SegmentOffering{
			SegmentIndex: res.Segment.Index,
			Anchor:       LatLon{Lat: res.Segment.Anchor.Lat, Lon: res.Segment.Anchor.Lon},
			ETA:          res.Segment.ETA,
			LengthM:      res.Segment.LengthM,
			Adapted:      res.Table.Adapted,
		}
		if n := len(res.Table.Entries); n > 0 { // an empty table stays "entries":null
			seg.Entries = make([]OfferingEntry, n)
			for i, e := range res.Table.Entries {
				seg.Entries[i] = wireEntry(e)
			}
		}
		ids := res.Table.IDs()
		if len(resp.Segments) == 0 || !slices.Equal(prev, ids) {
			resp.SplitPoints = append(resp.SplitPoints, res.Segment.Index)
			prev = ids
		}
		resp.Segments = append(resp.Segments, seg)
	}
	s.respond(w, r, &resp, func(b []byte) []byte { return wire.AppendTripResponse(b, &resp) })
}

// TripOffering requests a whole-trip evaluation (client side).
func (c *Client) TripOffering(ctx context.Context, req TripOfferingRequest) (TripOfferingResponse, error) {
	var out TripOfferingResponse
	err := c.post(ctx, "/offering/trip", req, &out)
	return out, err
}
