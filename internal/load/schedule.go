// Package load is the open-loop load harness: seeded arrival schedules,
// a trip-session query source over the trajectory sampler, an HTTP runner
// that measures latency from *intended* send time (coordinated-omission
// safe), response validation against the tabletest invariants, and the
// rate-sweep report that locates the saturation knee.
//
// Open loop means the arrival schedule is fixed before the first request:
// a slow server cannot slow the offered rate down, so queueing delay shows
// up in the recorded latencies instead of silently vanishing — the
// coordinated-omission failure mode of naive closed-loop harnesses.
package load

import (
	"fmt"
	"math/rand"
	"time"
)

// Schedule is an ascending list of arrival offsets from the run start.
// Schedules are values: deterministic for a given generator input and safe
// to share read-only across worker goroutines.
type Schedule []time.Duration

// Constant returns n arrivals at exactly rate per second: the k-th arrival
// at k/rate. Deterministic by construction (no seed).
func Constant(rate float64, n int) (Schedule, error) {
	if err := checkScheduleArgs(rate, n); err != nil {
		return nil, err
	}
	s := make(Schedule, n)
	for i := range s {
		s[i] = time.Duration(float64(i+1) / rate * float64(time.Second))
	}
	return s, nil
}

// Poisson returns n arrivals of a Poisson process with the given rate:
// i.i.d. exponential inter-arrival times of mean 1/rate, the stochastic
// arrival model of the charging-demand literature. The same (rate, n,
// seed) triple yields the byte-identical schedule on every platform
// (math/rand's generator is specified, not implementation-defined).
func Poisson(rate float64, n int, seed int64) (Schedule, error) {
	if err := checkScheduleArgs(rate, n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	s := make(Schedule, n)
	var t float64 // seconds
	for i := range s {
		t += rng.ExpFloat64() / rate
		s[i] = time.Duration(t * float64(time.Second))
	}
	return s, nil
}

func checkScheduleArgs(rate float64, n int) error {
	if rate <= 0 {
		return fmt.Errorf("load: rate must be positive, got %v", rate)
	}
	if n <= 0 {
		return fmt.Errorf("load: arrival count must be positive, got %d", n)
	}
	return nil
}
