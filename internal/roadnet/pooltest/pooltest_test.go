package pooltest

import (
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
	a, r := settle(time.Minute)
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
	a, r := settle(patience)
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
	if a, r := settle(time.Minute); a != r {
		t.Fatalf("settle = %d acquired, %d released; want the late release counted", a, r)
	}
}
