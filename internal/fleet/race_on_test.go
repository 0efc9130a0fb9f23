//go:build race

package fleet

// raceEnabled reports that this test binary runs under the race detector,
// whose instrumentation allocates inside sync.Pool and invalidates
// allocation assertions.
const raceEnabled = true
