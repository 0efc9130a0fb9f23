// Package fault implements deterministic, seeded fault injection for the
// EcoCharge pipeline: it decides — reproducibly, from a PRNG seed and the
// identity of each operation — whether an external dependency (a forecast
// source, a fleet shard behind the gateway's transport) fails or stalls.
//
// The paper's Estimated Components are backed by third-party feeds
// (weather, popular-times, traffic); those feeds fail in production, and
// eqs. 4–6 already define the principled response: an unavailable component
// degrades to its ignorance bound [0,1] instead of an error. This package
// supplies the failure side of that contract so the degradation path can be
// driven — and asserted on — by tests and benchmarks.
//
// Determinism rules:
//
//   - Decisions never read the wall clock. Time enters only through caller
//     supplied logical timestamps (query issue times) and the injector's
//     explicit virtual tick, advanced by the harness with Advance.
//   - Decide is a pure function of (seed, virtual tick, keys): the same
//     call yields the same decision regardless of goroutine interleaving,
//     which is what lets the chaos suite run under -race and still compare
//     outputs structurally.
//   - Sequenced decisions (a fleet shape's DropRate, where each exchange is
//     a distinct event) consume an atomic counter; they are reproducible for
//     any sequential driver.
package fault

import (
	"sync/atomic"
	"time"
)

// Window is a half-open range [From, To) of virtual ticks during which
// every decision fails — a scripted blackout (total source or transport
// outage). The harness moves through windows with Injector.Advance.
type Window struct {
	From, To uint64
}

// Config parameterizes an Injector. The zero value injects nothing.
type Config struct {
	// Seed selects the fault realization; different seeds fail different
	// (operation, entity) pairs at the same rates.
	Seed int64
	// Rate is the probability in [0,1] that an operation fails outright.
	Rate float64
	// Blackouts are virtual-tick windows of total outage. A test seam: only
	// this package's tests set it; a fleet harness scripts its blackouts per
	// shard (ShardShape.Blackouts).
	Blackouts []Window
}

// clamped returns the config with the probability forced into [0,1].
func (c Config) clamped() Config {
	c.Rate = clamp01(c.Rate)
	return c
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Decision is the outcome of one injected operation.
type Decision struct {
	// Fail means the operation failed outright (transport error, source
	// down, blackout).
	Fail bool
	// Latency is the delay to inject before the operation completes.
	Latency time.Duration
}

// Injector makes deterministic fault decisions. It is safe for concurrent
// use; all methods are non-blocking.
type Injector struct {
	cfg  Config
	tick atomic.Uint64
	seq  atomic.Uint64
}

// New returns an injector over the config with the virtual clock at tick 0.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg.clamped()}
}

// Advance moves the virtual clock forward by n ticks and returns the new
// tick. Blackout windows are expressed in these ticks; nothing else in the
// injector observes the passage of real time.
func (inj *Injector) Advance(n uint64) uint64 { return inj.tick.Add(n) }

// Tick returns the current virtual tick.
func (inj *Injector) Tick() uint64 { return inj.tick.Load() }

// Decide returns the deterministic decision for the operation identified by
// keys at the current virtual tick. It is pure between Advance calls: the
// same keys always produce the same decision, so callers may consult it
// repeatedly (e.g. once in a prune bound and once in the evaluation) and
// stay consistent, and evaluation order — sequential or parallel — cannot
// change any outcome.
func (inj *Injector) Decide(keys ...uint64) Decision {
	tick := inj.tick.Load()
	return Decision{Fail: in(inj.cfg.Blackouts, tick) || inj.frac(saltFail, tick, keys) < inj.cfg.Rate}
}

// saltFail decorrelates the failure draw from the other draws of a shared
// injector.
const saltFail uint64 = 0xfa17

// frac maps (seed, salt, tick, keys) to a uniform fraction in [0, 1).
func (inj *Injector) frac(salt, tick uint64, keys []uint64) float64 {
	h := splitmix64(uint64(inj.cfg.Seed) ^ salt)
	h = splitmix64(h ^ tick)
	for _, k := range keys {
		h = splitmix64(h ^ k)
	}
	return float64(h>>11) / float64(1<<53)
}

// splitmix64 is the finalizer of the SplitMix64 generator — the same cheap
// high-quality hash the EC models use for their deterministic noise.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashString folds a string into one key for Decide — used to identify
// endpoints and operations without allocating.
func HashString(s string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211 // FNV-1a prime
	}
	return h
}
