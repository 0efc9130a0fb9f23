package load

import (
	"testing"
	"time"

	"ecocharge/internal/trajectory"
)

// TestSessionsRoundRobin pins the query source's state machine: queries
// rotate across the vehicle pool, every query is a real segment anchor
// with a valid location, per-trip segment indexes advance in order, and
// finished trips are transparently replaced so the stream never ends.
func TestSessionsRoundRobin(t *testing.T) {
	env := testEnv(t)
	sampler, err := trajectory.NewSampler(env.Graph, trajectory.GenConfig{
		Seed: 9, MinTripKM: 1, Start: fixedNow, Window: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	const vehicles = 8
	src, err := NewSessions(env.Graph, sampler, vehicles, 2000)
	if err != nil {
		t.Fatal(err)
	}

	lastSeg := make(map[int64]int)
	tripOfSlot := make(map[int]int64)
	const draws = 500
	for i := 0; i < draws; i++ {
		q, err := src.Next()
		if err != nil {
			t.Fatalf("Next(%d): %v", i, err)
		}
		if q.Lat == 0 && q.Lon == 0 {
			t.Fatalf("draw %d: zero anchor", i)
		}
		if q.ETA.Before(fixedNow) {
			t.Fatalf("draw %d: ETA %v before the departure window", i, q.ETA)
		}
		slot := i % vehicles
		if prev, ok := tripOfSlot[slot]; ok && prev == q.TripID {
			if q.Segment != lastSeg[q.TripID]+1 {
				t.Fatalf("draw %d: trip %d jumped from segment %d to %d", i, q.TripID, lastSeg[q.TripID], q.Segment)
			}
		} else if q.Segment != 0 {
			t.Fatalf("draw %d: fresh trip %d started at segment %d", i, q.TripID, q.Segment)
		}
		tripOfSlot[slot] = q.TripID
		lastSeg[q.TripID] = q.Segment
	}
	if len(lastSeg) <= vehicles {
		t.Fatalf("only %d trips seen over %d draws — finished trips are not being replaced", len(lastSeg), draws)
	}

	// Determinism: a second pool over the same seed yields the same stream.
	sampler2, err := trajectory.NewSampler(env.Graph, trajectory.GenConfig{
		Seed: 9, MinTripKM: 1, Start: fixedNow, Window: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	src1, err := NewSessions(env.Graph, sampler2, vehicles, 2000)
	if err != nil {
		t.Fatal(err)
	}
	sampler3, _ := trajectory.NewSampler(env.Graph, trajectory.GenConfig{
		Seed: 9, MinTripKM: 1, Start: fixedNow, Window: time.Hour,
	})
	src2, err := NewSessions(env.Graph, sampler3, vehicles, 2000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		a, err1 := src1.Next()
		b, err2 := src2.Next()
		if err1 != nil || err2 != nil {
			t.Fatalf("draw %d: %v / %v", i, err1, err2)
		}
		if a != b {
			t.Fatalf("draw %d: query streams diverge: %+v vs %+v", i, a, b)
		}
	}

	if _, err := NewSessions(env.Graph, sampler, 0, 2000); err == nil {
		t.Fatal("vehicle count 0 accepted")
	}
}
