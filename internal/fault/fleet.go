package fault

import (
	"context"
	"fmt"
	"net/http"
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
// outbound traffic. Wrap a transport with Fleet.Transport and drive the
// scenario with the shared injector's Advance.
type Fleet struct {
	inj    *Injector
	shapes map[string]ShardShape
}

// NewFleet returns fleet faults over the injector; shapes are keyed by
// shard host. Hosts without a shape never fault.
func NewFleet(inj *Injector, shapes map[string]ShardShape) *Fleet {
	return &Fleet{inj: inj, shapes: shapes}
}

// probePath is how the transport tells control traffic from data traffic:
// the EIS health endpoint is the only path probers hit.
const probePath = "/healthz"

// Decide classifies one exchange against the shard's shape at the current
// tick. It is exported so non-HTTP harnesses can reuse the schedule.
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

// Transport wraps inner with the fleet's fault schedule. A nil inner
// selects http.DefaultTransport; a nil sleep selects a context-aware wait
// so injected slowness never outlives the request's deadline.
func (f *Fleet) Transport(inner http.RoundTripper, sleep func(time.Duration)) http.RoundTripper {
	return &fleetTransport{fleet: f, inner: inner, sleep: sleep}
}

type fleetTransport struct {
	fleet *Fleet
	inner http.RoundTripper
	sleep func(time.Duration)
}

// RoundTrip implements http.RoundTripper.
func (t *fleetTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	inner := t.inner
	if inner == nil {
		inner = http.DefaultTransport
	}
	d := t.fleet.Decide(req.URL.Host, req.URL.Path)
	if d.Latency > 0 {
		if t.sleep != nil {
			t.sleep(d.Latency)
		} else if err := sleepCtx(req.Context(), d.Latency); err != nil {
			return nil, err
		}
	}
	if d.Fail {
		return nil, &TransportError{Endpoint: req.URL.Host + req.URL.Path}
	}
	return inner.RoundTrip(req)
}

// TransportError is the injected failure returned by a faulted round trip,
// distinguishable from genuine transport errors in assertions.
type TransportError struct {
	// Endpoint is the host and path of the faulted request.
	Endpoint string
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("fault: injected transport error on %s", e.Endpoint)
}

// sleepCtx waits for d or until the request's context is cancelled,
// whichever comes first, so injected latency cannot outlive the caller's
// deadline.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// saltFleet namespaces fleet drop decisions away from the other users of a
// shared injector.
const saltFleet uint64 = 0xf1ee7
