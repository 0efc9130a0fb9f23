package pooltest

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"ecocharge/internal/obs"
)

// The test binary links no search code, so the two counters settle reads
// move only when the tests below move them.
var (
	acquires = obs.Default().Counter("roadnet_pool_acquires_total")
	releases = obs.Default().Counter("roadnet_pool_releases_total")
)

// balance brings the two counters level again, so the tests do not depend
// on their order.
func balance() {
	if a, r := acquires.Value(), releases.Value(); a > r {
		releases.Add(a - r)
	} else {
		acquires.Add(r - a)
	}
}

func TestSettleEqualReturnsAtOnce(t *testing.T) {
	balance()
	acquires.Add(3)
	releases.Add(3)
	start := time.Now()
	a, r, _ := settle(math.MaxInt, time.Minute)
	if a != r {
		t.Fatalf("settle = %d acquired, %d released; want equal", a, r)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Errorf("settle waited %v on equal counters; want an immediate return", waited)
	}
}

func TestSettleReportsLeakAfterPatience(t *testing.T) {
	balance()
	t.Cleanup(balance)
	acquires.Add(2)
	const patience = 50 * time.Millisecond
	start := time.Now()
	a, r, _ := settle(math.MaxInt, patience)
	if a != r+2 {
		t.Fatalf("settle = %d acquired, %d released; want two more acquired", a, r)
	}
	if waited := time.Since(start); waited < patience {
		t.Errorf("settle gave up after %v; want it to wait out the %v patience", waited, patience)
	}
}

func TestSettleSeesLateRelease(t *testing.T) {
	balance()
	t.Cleanup(balance)
	acquires.Inc()
	timer := time.AfterFunc(30*time.Millisecond, releases.Inc)
	defer timer.Stop()
	if a, r, _ := settle(math.MaxInt, time.Minute); a != r {
		t.Fatalf("settle = %d acquired, %d released; want the late release counted", a, r)
	}
}

// Goroutines that outlive their test are reported once the patience runs
// out, and ones that end late are waited for. Three leak, so a goroutine
// of an earlier test that ends meanwhile cannot hide them.
func TestSettleCountsGoroutines(t *testing.T) {
	balance()
	before := runtime.NumGoroutine()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-stop
		}()
	}
	if _, _, running := settle(before, 50*time.Millisecond); running <= before {
		t.Fatalf("settle saw %d goroutines with three leaked over %d; want more", running, before)
	}
	timer := time.AfterFunc(30*time.Millisecond, func() { close(stop) })
	defer timer.Stop()
	if _, _, running := settle(before, time.Minute); running > before {
		t.Fatalf("settle saw %d goroutines after the late ones ended; want at most %d", running, before)
	}
	wg.Wait()
}
