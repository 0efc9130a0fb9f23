package load

import (
	"fmt"
	"time"

	"ecocharge/internal/roadnet"
	"ecocharge/internal/trajectory"
)

// Query is one Mode 2 offering request the harness will issue: a trip's
// current segment anchor with its ETA.
type Query struct {
	TripID  int64
	Segment int
	Lat     float64
	Lon     float64
	ETA     time.Time
}

// session is one vehicle mid-trip: its segmented path and a cursor.
type session struct {
	tripID int64
	segs   []trajectory.Segment
	next   int
}

// Sessions is the trip-session state machine: a fixed-size pool of
// concurrent vehicles, each walking the segments of a sampled trip and
// issuing one offering query per segment anchor. When a vehicle finishes
// its trip the pool streams a fresh one from the Sampler, so a run of any
// length holds only `concurrent` trips in memory. Queries rotate
// round-robin across vehicles — the interleaved per-segment query stream
// of a fleet, not one trip replayed end to end.
//
// Not safe for concurrent use: Runner.Run draws a step's queries
// single-threaded before its clock starts, which also keeps the offered
// request sequence deterministic for a given sampler seed.
type Sessions struct {
	g        *roadnet.Graph
	sampler  *trajectory.Sampler
	segLenM  float64
	vehicles []session
	cursor   int
}

// NewSessions builds the pool and fills it with `concurrent` trips.
func NewSessions(g *roadnet.Graph, sampler *trajectory.Sampler, concurrent int, segLenM float64) (*Sessions, error) {
	if concurrent <= 0 {
		return nil, fmt.Errorf("load: concurrent vehicle count must be positive, got %d", concurrent)
	}
	s := &Sessions{g: g, sampler: sampler, segLenM: segLenM, vehicles: make([]session, concurrent)}
	for i := range s.vehicles {
		if err := s.refill(i); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// refill replaces vehicle i with the next sampled trip that segments into
// at least one query point.
func (s *Sessions) refill(i int) error {
	for {
		trip, err := s.sampler.Next()
		if err != nil {
			return err
		}
		segs := trajectory.SegmentTrip(s.g, trip, s.segLenM)
		if len(segs) == 0 {
			continue // degenerate path; the sampler's constraints make this rare
		}
		s.vehicles[i] = session{tripID: trip.ID, segs: segs}
		return nil
	}
}

// Next returns the next query of the fleet: the current vehicle's segment
// anchor, advancing that vehicle (and replacing it when its trip ends).
func (s *Sessions) Next() (Query, error) {
	v := &s.vehicles[s.cursor]
	seg := v.segs[v.next]
	q := Query{
		TripID:  v.tripID,
		Segment: seg.Index,
		Lat:     seg.Anchor.Lat,
		Lon:     seg.Anchor.Lon,
		ETA:     seg.ETA,
	}
	v.next++
	if v.next >= len(v.segs) {
		if err := s.refill(s.cursor); err != nil {
			return Query{}, err
		}
	}
	s.cursor = (s.cursor + 1) % len(s.vehicles)
	return q, nil
}
