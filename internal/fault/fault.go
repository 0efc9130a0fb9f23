// Package fault implements deterministic, seeded fault injection for the
// EcoCharge pipeline: it decides — reproducibly, from a PRNG seed and the
// identity of each operation — whether an external dependency (a forecast
// source, the EIS HTTP transport) fails, serves stale data, or stalls.
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
//   - Sequenced decisions (DecideSeq, used by the HTTP transport where each
//     attempt is a distinct event) consume an atomic counter; they are
//     reproducible for any sequential driver.
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
	// StaleRate is the probability in [0,1] that an operation succeeds but
	// serves data past its freshness horizon. Consumers that need fresh
	// estimates (the EC sources) treat stale as failed; transports pass it
	// through as a header-level concern.
	StaleRate float64
	// LatencyRate is the probability in [0,1] that an operation is slowed
	// by up to Latency (scaled by a deterministic fraction).
	LatencyRate float64
	// Latency is the maximum injected delay when LatencyRate hits.
	Latency time.Duration
	// Blackouts are virtual-tick windows of total outage.
	Blackouts []Window
}

// clamped returns the config with probabilities forced into [0,1].
func (c Config) clamped() Config {
	c.Rate = clamp01(c.Rate)
	c.StaleRate = clamp01(c.StaleRate)
	c.LatencyRate = clamp01(c.LatencyRate)
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
	// Stale means the operation succeeded but the data is past its
	// freshness horizon.
	Stale bool
	// Latency is the delay to inject before the operation completes.
	Latency time.Duration
}

// Degraded reports whether the decision should degrade a component fetch:
// failed or stale sources both fall back to the ignorance bound.
func (d Decision) Degraded() bool { return d.Fail || d.Stale }

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
func (in *Injector) Advance(n uint64) uint64 { return in.tick.Add(n) }

// Tick returns the current virtual tick.
func (in *Injector) Tick() uint64 { return in.tick.Load() }

func (in *Injector) blackoutAt(tick uint64) bool {
	for _, w := range in.cfg.Blackouts {
		if tick >= w.From && tick < w.To {
			return true
		}
	}
	return false
}

// Decide returns the deterministic decision for the operation identified by
// keys at the current virtual tick. It is pure between Advance calls: the
// same keys always produce the same decision, so callers may consult it
// repeatedly (e.g. once in a prune bound and once in the evaluation) and
// stay consistent, and evaluation order — sequential or parallel — cannot
// change any outcome.
func (in *Injector) Decide(keys ...uint64) Decision {
	tick := in.tick.Load()
	if in.blackoutAt(tick) {
		return Decision{Fail: true}
	}
	var d Decision
	if in.frac(saltFail, tick, keys) < in.cfg.Rate {
		d.Fail = true
		return d
	}
	if in.frac(saltStale, tick, keys) < in.cfg.StaleRate {
		d.Stale = true
	}
	if in.cfg.Latency > 0 && in.frac(saltLatency, tick, keys) < in.cfg.LatencyRate {
		scale := in.frac(saltLatencyAmt, tick, keys)
		d.Latency = time.Duration(scale * float64(in.cfg.Latency))
	}
	return d
}

// DecideSeq stamps the operation with a fresh sequence number and decides
// on (keys..., seq): consecutive attempts against the same endpoint get
// independent decisions, which is what makes retries meaningful. The
// sequence is deterministic for a sequential driver.
func (in *Injector) DecideSeq(keys ...uint64) Decision {
	seq := in.seq.Add(1)
	return in.Decide(append(append([]uint64(nil), keys...), seq)...)
}

// Salts decorrelate the independent probability draws of one decision.
const (
	saltFail       uint64 = 0xfa17
	saltStale      uint64 = 0x57a1e
	saltLatency    uint64 = 0x1a7e
	saltLatencyAmt uint64 = 0x1a7e2
)

// frac maps (seed, salt, tick, keys) to a uniform fraction in [0, 1).
func (in *Injector) frac(salt, tick uint64, keys []uint64) float64 {
	h := splitmix64(uint64(in.cfg.Seed) ^ salt)
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
