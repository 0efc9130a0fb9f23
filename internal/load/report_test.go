package load

import (
	"strings"
	"testing"
	"time"

	"ecocharge/internal/obs"
)

// synthStep fabricates a completed rate step: n latencies around lat, with
// the outcome counts given. Elapsed is pinned to exactly 1 s so goodput
// equals the valid count.
func synthStep(plane Plane, rate float64, valid, degraded, shed, invalid, errors int, lat time.Duration) Result {
	h := &obs.Histogram{}
	n := valid + degraded + shed + invalid + errors
	for i := 0; i < n; i++ {
		h.Observe(lat + time.Duration(i)*time.Microsecond)
	}
	return Result{
		Plane: plane, RateHz: rate, Mode: "open",
		Offered: n, Sent: n,
		Valid: valid, Degraded: degraded, Shed: shed, Invalid: invalid, Errors: errors,
		Elapsed: time.Second, MaxLat: lat, Latency: h,
	}
}

func TestKneeSelection(t *testing.T) {
	hold := synthStep(PlaneWire, 100, 100, 0, 0, 0, 0, time.Millisecond)
	holdDegraded := synthStep(PlaneWire, 200, 150, 45, 0, 0, 5, time.Millisecond)
	sat := synthStep(PlaneWire, 400, 200, 0, 200, 0, 0, time.Second) // 50% goodput
	// A contract violation disqualifies a step no matter its goodput.
	invalid := synthStep(PlaneWire, 200, 199, 0, 0, 1, 0, time.Millisecond)

	for _, tc := range []struct {
		name      string
		steps     []Result
		idx       int
		saturated bool
	}{
		{"hold, hold via degraded, sat", []Result{hold, holdDegraded, sat}, 1, true},
		{"invalid step is not a knee", []Result{hold, invalid, sat}, 0, true},
		{"hold, sat, hold: the knee is before the first failure", []Result{hold, sat, hold}, 0, true},
		{"all hold: never bracketed", []Result{hold, holdDegraded}, 1, false},
		{"all saturated", []Result{sat}, -1, true},
		{"empty sweep", nil, -1, false},
	} {
		if idx, saturated := knee(tc.steps); idx != tc.idx || saturated != tc.saturated {
			t.Errorf("%s: knee = %d,%v, want %d,%v", tc.name, idx, saturated, tc.idx, tc.saturated)
		}
	}
}

func TestWriteReportMarksKneeAndViolations(t *testing.T) {
	violated := synthStep(PlaneJSON, 400, 100, 0, 0, 1, 299, 2*time.Second)
	violated.FirstViolation = "offering table misordered at rank 2"
	for _, tc := range []struct {
		name  string
		steps []Result
		want  []string // substrings of the report
		marks int      // rows marked "<-- knee"
	}{
		{"knee and violation", []Result{
			synthStep(PlaneJSON, 100, 100, 0, 0, 0, 0, 900*time.Microsecond),
			violated,
		}, []string{"sat", "first violation: offering table misordered", "µs", "s",
			"knee (json plane): 100 req/s sustained with goodput 100.0/s"}, 1},
		{"all hold", []Result{
			synthStep(PlaneWire, 50, 50, 0, 0, 0, 0, time.Millisecond),
			synthStep(PlaneWire, 100, 100, 0, 0, 0, 0, time.Millisecond),
		}, []string{"knee (wire plane): not reached: every step held, sweep higher rates"}, 0},
		{"first step saturated", []Result{
			synthStep(PlaneWire, 400, 200, 0, 200, 0, 0, time.Second),
		}, []string{"knee (wire plane): not reached: the first step saturated, sweep lower rates"}, 0},
		{"one knee per plane", []Result{
			synthStep(PlaneJSON, 100, 100, 0, 0, 0, 0, time.Millisecond),
			synthStep(PlaneJSON, 200, 100, 0, 100, 0, 0, time.Second),
			synthStep(PlaneWire, 100, 100, 0, 0, 0, 0, time.Millisecond),
			synthStep(PlaneWire, 200, 200, 0, 0, 0, 0, time.Millisecond),
			synthStep(PlaneWire, 400, 200, 0, 200, 0, 0, time.Second),
		}, []string{"knee (json plane): 100 req/s sustained", "knee (wire plane): 200 req/s sustained"}, 2},
		{"hold, sat, hold", []Result{
			synthStep(PlaneWire, 100, 100, 0, 0, 0, 0, time.Millisecond),
			synthStep(PlaneWire, 200, 100, 0, 100, 0, 0, time.Second),
			synthStep(PlaneWire, 400, 400, 0, 0, 0, 0, time.Millisecond),
		}, []string{"knee (wire plane): 100 req/s sustained"}, 1},
	} {
		var b strings.Builder
		if err := WriteReport(&b, tc.steps); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s: report lacks %q:\n%s", tc.name, want, out)
			}
		}
		if got := strings.Count(out, "<-- knee"); got != tc.marks {
			t.Errorf("%s: %d rows marked as knee, want %d:\n%s", tc.name, got, tc.marks, out)
		}
	}
}

func TestOutcomeStrings(t *testing.T) {
	seen := map[string]bool{}
	for o := Outcome(0); o < outcomeCount; o++ {
		s := o.String()
		if s == "" || strings.HasPrefix(s, "outcome(") {
			t.Fatalf("outcome %d has no name", o)
		}
		if seen[s] {
			t.Fatalf("duplicate outcome name %q", s)
		}
		seen[s] = true
	}
	if len(seen) != int(outcomeCount) {
		t.Fatalf("%d distinct names for %d outcomes", len(seen), outcomeCount)
	}
}
