package eis

import (
	"errors"
	"sync"
	"time"
)

// ErrCircuitOpen is returned by the client without touching the network
// while an endpoint's circuit breaker is open: the endpoint failed
// repeatedly and the cooldown since the last failure has not elapsed.
// Callers can errors.Is against it to distinguish fail-fast from a fresh
// transport failure.
var ErrCircuitOpen = errors.New("eis client: circuit open")

// breakerState is the classic three-state machine.
type breakerState int

const (
	// breakerClosed passes requests through, counting consecutive faults.
	breakerClosed breakerState = iota
	// breakerOpen fails fast until the cooldown elapses.
	breakerOpen
	// breakerHalfOpen lets exactly one probe through; its outcome decides
	// between closing and re-opening.
	breakerHalfOpen
)

// Breaker is a circuit breaker over one failure domain: the EIS client keys
// one per endpoint path, the fleet gateway one per shard host, fed by active
// probe outcomes and passive per-request failures. All methods are safe for
// concurrent use, and every transition feeds the same metrics. Time is read
// through the injected clock only, so tests drive the cooldown without
// sleeping.
type Breaker struct {
	mu        sync.Mutex
	state     breakerState
	failures  int // consecutive faults while closed
	openedAt  time.Time
	probing   bool // half-open: a probe is in flight
	threshold int
	cooldown  time.Duration
	now       func() time.Time
}

// NewBreaker returns a breaker that opens after threshold consecutive
// faults and admits a half-open probe once cooldown has elapsed, reading
// time through now. Zero/nil arguments select the defaults every breaker of
// the repository runs with: 5 faults, 5 s, time.Now.
func NewBreaker(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// Allow reports whether a request may proceed; ErrCircuitOpen means fail
// fast. In the open state it either fails fast or — once the cooldown has
// elapsed — transitions to half-open and admits a single probe; concurrent
// requests during the probe fail fast. Every Allow that returned nil must be
// followed by OnSuccess or OnFailure, or the probe slot leaks and the
// breaker stays half-open.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return ErrCircuitOpen
		}
		b.state = breakerHalfOpen
		b.probing = true
		met.breakerHalfOpen.Inc()
		return nil
	default: // half-open
		if b.probing {
			return ErrCircuitOpen
		}
		b.probing = true
		return nil
	}
}

// OnSuccess records a fault-free exchange: it closes the breaker from any
// state and clears the fault count.
func (b *Breaker) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerClosed {
		met.breakerClosed.Inc()
	}
	b.state = breakerClosed
	b.failures = 0
	b.probing = false
}

// OnFailure records a fault: the threshold-th consecutive fault opens a
// closed breaker, and a failed half-open probe re-opens immediately.
func (b *Breaker) OnFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = b.now()
		b.probing = false
		met.breakerOpened.Inc()
	case breakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.state = breakerOpen
			b.openedAt = b.now()
			met.breakerOpened.Inc()
		}
	case breakerOpen:
		// A request admitted before the state flipped lost its race; the
		// breaker is already open, refresh nothing.
	}
}

func (b *Breaker) snapshot() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Open reports whether the breaker currently fails fast. It is a read-only
// snapshot — unlike Allow it never consumes the half-open probe slot — so
// health surfaces can poll it freely.
func (b *Breaker) Open() bool { return b.snapshot() == breakerOpen }

// State renders the current state for diagnostics: "closed", "open" or
// "half-open".
func (b *Breaker) State() string {
	switch b.snapshot() {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
