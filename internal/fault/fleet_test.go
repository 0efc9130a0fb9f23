package fault

import (
	"testing"
	"time"
)

// TestFleetShapes walks one shard through every fault shape with Advance
// and asserts the probe/API asymmetry the gateway relies on.
func TestFleetShapes(t *testing.T) {
	const host = "shard0:80"
	inj := New(Config{Seed: 1})
	fl := NewFleet(inj, map[string]ShardShape{
		host: {
			Blackouts:      []Window{{From: 1, To: 2}},
			PartitionAPI:   []Window{{From: 2, To: 3}},
			PartitionProbe: []Window{{From: 3, To: 4}},
			Slow:           []Window{{From: 4, To: 5}},
			Latency:        25 * time.Millisecond,
		},
	})
	check := func(path string, want Decision, label string) {
		t.Helper()
		if got := fl.Decide(host, path); got != want {
			t.Fatalf("%s: %+v, want %+v", label, got, want)
		}
	}
	fail := Decision{Fail: true}

	// Tick 0: no window active, everything passes.
	check("/healthz", Decision{}, "tick 0 probe")
	check("/api/v1/offering", Decision{}, "tick 0 api")

	inj.Advance(1) // tick 1: blackout — both paths dead
	check("/healthz", fail, "blackout probe")
	check("/api/v1/offering", fail, "blackout api")

	inj.Advance(1) // tick 2: API partition — probes lie healthy
	check("/healthz", Decision{}, "partitionAPI probe")
	check("/api/v1/offering", fail, "partitionAPI api")

	inj.Advance(1) // tick 3: probe partition — data path fine
	check("/healthz", fail, "partitionProbe probe")
	check("/api/v1/offering", Decision{}, "partitionProbe api")

	inj.Advance(1) // tick 4: slow shard — API delayed, probes fast
	check("/healthz", Decision{}, "slow probe")
	check("/api/v1/offering", Decision{Latency: 25 * time.Millisecond}, "slow api")

	inj.Advance(1) // tick 5: out of every window
	check("/healthz", Decision{}, "recovered probe")
	check("/api/v1/offering", Decision{}, "recovered api")

	// A host without a shape never faults.
	other := NewFleet(inj, map[string]ShardShape{"elsewhere:1": {Blackouts: []Window{{From: 0, To: 100}}}})
	if d := other.Decide(host, "/healthz"); d != (Decision{}) {
		t.Fatalf("unshaped host faulted: %+v", d)
	}
}

// TestFleetDropRateDeterminism pins the flapping shape: same seed, same
// sequence of outcomes; decisions are independent per exchange.
func TestFleetDropRateDeterminism(t *testing.T) {
	outcomes := func() []bool {
		inj := New(Config{Seed: 7})
		fl := NewFleet(inj, map[string]ShardShape{"s1:80": {DropRate: 0.5}})
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, fl.Decide("s1:80", "/api/v1/offering").Fail)
		}
		return out
	}
	a, b := outcomes(), outcomes()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outcome %d differs between identical runs", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("drop rate 0.5 produced %d/%d failures — draws are not independent", fails, len(a))
	}
	// Probes are never dropped by DropRate.
	inj := New(Config{Seed: 7})
	fl := NewFleet(inj, map[string]ShardShape{"s1:80": {DropRate: 1}})
	if fl.Decide("s1:80", "/healthz").Fail {
		t.Fatal("DropRate dropped a health probe")
	}
	if !fl.Decide("s1:80", "/api/v1/offering").Fail {
		t.Fatal("DropRate 1 let an API call through")
	}
}
