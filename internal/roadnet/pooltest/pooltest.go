// Package pooltest is the leak check for the test binaries of the packages
// that serve rankings: every search state checked out of a graph's pool
// during the run must have gone back, and every goroutine a test started
// must have ended.
package pooltest

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"ecocharge/internal/obs"
)

// Main runs the package's tests and then fails the binary if
// roadnet_pool_acquires_total and roadnet_pool_releases_total disagree, or
// if more goroutines run than before the first test, printing every
// goroutine's stack. A handler may outlive the test that abandoned its
// request (a single-flight leader always finishes its table), and a closed
// server's connections take a moment to wind down, so both get a few
// seconds to settle before a difference counts as a leak. A fuzzing run is
// held to the counters only.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		goroutines := before
		if f := flag.Lookup("test.fuzz"); f != nil && f.Value.String() != "" {
			// The fuzzing engine leaves its signal watcher running.
			goroutines = math.MaxInt
		}
		acquired, released, running := settle(goroutines, 5*time.Second)
		if acquired != released {
			fmt.Fprintf(os.Stderr, "pooltest: %v search states acquired, %v released: a search path leaks its scratch\n", acquired, released)
			code = 1
		}
		if running > goroutines {
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "pooltest: %d goroutines running after the tests, %d before: a test leaks one\n%s\n",
				running, before, buf[:runtime.Stack(buf, true)])
			code = 1
		}
	}
	os.Exit(code)
}

// settle polls the two counters and the goroutine count until the counters
// agree and at most goroutines run, or the patience runs out.
func settle(goroutines int, patience time.Duration) (acquired, released uint64, running int) {
	deadline := time.Now().Add(patience)
	for {
		snap := obs.Default().Snapshot()
		acquired = uint64(snap["roadnet_pool_acquires_total"])
		released = uint64(snap["roadnet_pool_releases_total"])
		running = runtime.NumGoroutine()
		if (acquired == released && running <= goroutines) || time.Now().After(deadline) {
			return acquired, released, running
		}
		time.Sleep(10 * time.Millisecond)
	}
}
