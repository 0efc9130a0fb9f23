// Package eis implements the EcoCharge Information Server of §IV and its
// client. The server consolidates charger inventory, weather, availability
// and traffic estimates behind an HTTP API and computes Offering Tables
// centrally (Mode 2); the client supports all three modes of operation:
//
//	Mode 1 — in-vehicle: the embedded OS holds the environment and computes
//	         locally (no server involved; use cknn directly).
//	Mode 2 — server: the client posts a query, the EIS computes the table.
//	Mode 3 — edge: the client pulls the data (chargers + model seeds) from
//	         the EIS once and computes tables on the phone.
//
// JSON is the canonical, default interchange format. The hot-path payloads
// (Offering Tables, charger lists, point lookups) additionally negotiate
// the compact binary format of internal/wire via standard Accept /
// Content-Type headers; see that package for the format and the
// equivalence contract.
package eis

import (
	"ecocharge/internal/cknn"
	"ecocharge/internal/interval"
	"ecocharge/internal/wire"
)

// APIVersion prefixes all routes.
const APIVersion = "/api/v1"

// The wire types live in internal/wire (shared with the binary codec and
// the fleet gateway); the aliases keep eis.OfferingResponse et al. the
// canonical names for every caller.
type (
	// IntervalJSON is the wire form of an interval estimate.
	IntervalJSON = wire.IntervalJSON
	// WeightsJSON is the wire form of the SC weights.
	WeightsJSON = wire.WeightsJSON
	// OfferingRequest asks the EIS for an Offering Table (Mode 2).
	OfferingRequest = wire.OfferingRequest
	// LatLon is a wire waypoint.
	LatLon = wire.LatLon
	// TripOfferingRequest asks the EIS to evaluate a whole scheduled trip.
	TripOfferingRequest = wire.TripOfferingRequest
	// OfferingEntry is one ranked charger of the response.
	OfferingEntry = wire.OfferingEntry
	// OfferingResponse is the Mode 2 result.
	OfferingResponse = wire.OfferingResponse
	// SegmentOffering is one per-segment result of a trip evaluation.
	SegmentOffering = wire.SegmentOffering
	// TripOfferingResponse is the whole-trip Mode 2 result.
	TripOfferingResponse = wire.TripOfferingResponse
	// WeatherResponse reports the production forecast of one charger site.
	WeatherResponse = wire.WeatherResponse
	// AvailabilityResponse reports the availability estimate of one charger.
	AvailabilityResponse = wire.AvailabilityResponse
	// TrafficResponse reports the congestion multiplier band per road class.
	TrafficResponse = wire.TrafficResponse
	// ErrorResponse is the JSON body of non-2xx responses.
	ErrorResponse = wire.ErrorResponse
)

func toWire(i interval.I) IntervalJSON { return wire.ToWire(i) }

// wireEntry converts one ranked engine entry to its wire form; every
// endpoint emitting Offering Tables goes through it so the wire contract
// (including the Degraded tag) cannot drift between endpoints.
func wireEntry(e cknn.Entry) OfferingEntry {
	return OfferingEntry{
		ChargerID: e.Charger.ID,
		Lat:       e.Charger.P.Lat,
		Lon:       e.Charger.P.Lon,
		RateKW:    e.Charger.Rate.KW(),
		SC:        toWire(e.SC),
		L:         toWire(e.Comp.L),
		A:         toWire(e.Comp.A),
		D:         toWire(e.Comp.D),
		ETA:       e.Comp.ETA,
		Degraded:  uint8(e.Comp.Degraded),
	}
}
