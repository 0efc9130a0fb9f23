// Package pooltest is the search-state leak check of ROADMAP item 4c, for
// the test binaries of the packages that serve rankings: every search state
// checked out of a graph's pool during the run must have gone back.
package pooltest

import (
	"fmt"
	"os"
	"testing"
	"time"

	"ecocharge/internal/obs"
)

// Main runs the package's tests and then fails the binary if
// roadnet_pool_acquires_total and roadnet_pool_releases_total disagree. A
// handler may outlive the test that abandoned its request (a single-flight
// leader always finishes its table), so the counters get a few seconds to
// meet before a difference counts as a leak.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if acquired, released := settle(5 * time.Second); acquired != released {
			fmt.Fprintf(os.Stderr, "pooltest: %v search states acquired, %v released: a search path leaks its scratch\n", acquired, released)
			code = 1
		}
	}
	os.Exit(code)
}

// settle polls the two counters until they agree or the patience runs out.
func settle(patience time.Duration) (acquired, released uint64) {
	deadline := time.Now().Add(patience)
	for {
		snap := obs.Default().Snapshot()
		acquired = uint64(snap["roadnet_pool_acquires_total"])
		released = uint64(snap["roadnet_pool_releases_total"])
		if acquired == released || time.Now().After(deadline) {
			return acquired, released
		}
		time.Sleep(10 * time.Millisecond)
	}
}
