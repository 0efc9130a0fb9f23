package fault

import (
	"fmt"
	"time"
)

// ShardShape scripts the failure behavior of one fleet shard, keyed by the
// shard's host (req.URL.Host). Every field is expressed in the injector's
// virtual ticks, so a chaos harness walks a whole fleet through blackouts,
// partitions and slowdowns with Advance — deterministically, under -race.
//
// The asymmetric shapes model the two partition lies a health-checked
// gateway must survive: PartitionAPI is a shard whose probes answer while
// its data path is dead (the gateway's passive failure accounting, not the
// prober, has to catch it), and PartitionProbe is the inverse — a healthy
// data path behind a dead health endpoint (the gateway must not hard-fail a
// shard that still answers requests).
type ShardShape struct {
	// Blackouts are windows during which every request to the shard —
	// probes and API alike — fails (the process is gone).
	Blackouts []Window
	// PartitionAPI are windows during which API requests fail while health
	// probes still succeed (asymmetric partition on the data path).
	PartitionAPI []Window
	// PartitionProbe are windows during which health probes fail while API
	// requests still succeed (asymmetric partition on the control path).
	PartitionProbe []Window
	// Slow are windows during which API requests are delayed by Latency
	// before being forwarded (a struggling, not dead, shard). Probes stay
	// fast: slow shards routinely pass health checks.
	Slow []Window
	// Latency is the delay applied inside Slow windows.
	Latency time.Duration
	// DropRate additionally fails API requests with this probability in
	// [0,1] at every tick (flapping); decisions consume the injector's
	// sequence counter so retries and hedges get independent draws.
	DropRate float64
}

// in reports whether tick falls inside any of the windows.
func in(ws []Window, tick uint64) bool {
	for _, w := range ws {
		if tick >= w.From && tick < w.To {
			return true
		}
	}
	return false
}

// Fleet makes deterministic per-shard fault decisions for a gateway's
// outbound traffic: a harness asks Decide before each exchange it forwards
// and drives the scenario with the shared injector's Advance.
type Fleet struct {
	inj    *Injector
	shapes map[string]ShardShape
}

// NewFleet returns fleet faults over the injector; shapes are keyed by
// shard host. Hosts without a shape never fault.
func NewFleet(inj *Injector, shapes map[string]ShardShape) *Fleet {
	return &Fleet{inj: inj, shapes: shapes}
}

// probePath is how Decide tells control traffic from data traffic: the EIS
// health endpoint is the only path probers hit.
const probePath = "/healthz"

// Decide classifies one exchange against the shard's shape at the current
// tick: whether it fails, and how long it waits first.
func (f *Fleet) Decide(host, path string) Decision {
	shape, ok := f.shapes[host]
	if !ok {
		return Decision{}
	}
	tick := f.inj.Tick()
	probe := path == probePath
	if in(shape.Blackouts, tick) {
		return Decision{Fail: true}
	}
	if probe {
		return Decision{Fail: in(shape.PartitionProbe, tick)}
	}
	if in(shape.PartitionAPI, tick) {
		return Decision{Fail: true}
	}
	var d Decision
	if rate := clamp01(shape.DropRate); rate > 0 {
		// Each exchange is a distinct event — the sequence counter gives
		// retries and hedges independent draws.
		seq := f.inj.seq.Add(1)
		if f.inj.frac(saltFleet, tick, []uint64{HashString(host), HashString(path), seq}) < rate {
			d.Fail = true
			return d
		}
	}
	if in(shape.Slow, tick) {
		d.Latency = shape.Latency
	}
	return d
}

// TransportError is the injected failure a harness returns for an exchange
// Decide failed, distinguishable from genuine transport errors in
// assertions.
type TransportError struct {
	// Endpoint is the host and path of the faulted request.
	Endpoint string
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("fault: injected transport error on %s", e.Endpoint)
}

// saltFleet namespaces fleet drop decisions away from the other users of a
// shared injector.
const saltFleet uint64 = 0xf1ee7
