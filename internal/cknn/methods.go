package cknn

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"ecocharge/internal/charger"
	"ecocharge/internal/geo"
	"ecocharge/internal/interval"
	"ecocharge/internal/roadnet"
)

func secondsDur(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// Method is a ranking strategy producing Offering Tables for query points.
// Implementations correspond one-to-one to the evaluation's compared
// approaches. Methods may keep per-trip state (the EcoCharge cache); call
// Reset between trips. A method belongs to one goroutine — create one per
// goroutine — except BruteForce and IndexQuadtree, which are stateless and
// safe to share.
type Method interface {
	// Name is the label used in the figures.
	Name() string
	// Rank computes the Offering Table for the query.
	Rank(q Query) OfferingTable
	// Reset clears per-trip state.
	Reset()
}

// BruteForce exhaustively evaluates the entire charger pool with unbounded
// network expansions: the optimal-but-slowest baseline (SC = 100% by
// definition of the evaluation metric). It is stateless, safe to share: Rank
// may be called from several goroutines at once.
type BruteForce struct {
	engine Engine
}

// NewBruteForce returns the exhaustive baseline method.
func NewBruteForce(env *Env) *BruteForce { return &BruteForce{engine: Engine{Env: env}} }

// Name implements Method.
func (m *BruteForce) Name() string { return "BruteForce" }

// Reset implements Method; BruteForce is stateless.
func (m *BruteForce) Reset() {}

// Rank implements Method.
func (m *BruteForce) Rank(q Query) OfferingTable {
	q = q.normalized()
	all := m.engine.Env.Chargers.All()
	cands := make([]*charger.Charger, len(all))
	for i := range all {
		cands[i] = &all[i]
	}
	// Unbounded search effort, but the expansions still stop once every
	// charger (and the return node) is settled — the exhaustive baseline
	// pays for the candidate set, not for the whole graph.
	d := m.engine.Env.deroutingMaps(q, math.Inf(1), deroutTargets(cands, q.ReturnNode), exactBounds)
	defer d.Release()
	return OfferingTable{
		Anchor:      q.Anchor,
		GeneratedAt: q.Now,
		ETABase:     q.ETABase,
		Entries:     m.engine.rankPool(cands, d, q, nil),
	}
}

// IndexQuadtree retrieves candidates through the spatial index — the
// quadtreeCandidateFactor·k chargers geometrically nearest the anchor — and
// ranks only those. Retrieval drops from O(n) to O(log n), trading SC: the
// best sustainability score is not always among the nearest chargers. It is
// stateless, safe to share, like BruteForce.
type IndexQuadtree struct {
	engine Engine
}

// quadtreeCandidateFactor scales IndexQuadtree's candidate set: the
// 2·k nearest chargers.
const quadtreeCandidateFactor = 2

// NewIndexQuadtree returns the index-based baseline method.
func NewIndexQuadtree(env *Env) *IndexQuadtree {
	return &IndexQuadtree{engine: Engine{Env: env}}
}

// Name implements Method.
func (m *IndexQuadtree) Name() string { return "Index-Quadtree" }

// Reset implements Method; the method is stateless.
func (m *IndexQuadtree) Reset() {}

// Rank implements Method.
func (m *IndexQuadtree) Rank(q Query) OfferingTable {
	q = q.normalized()
	cands := m.engine.Env.Chargers.KNearest(q.Anchor, quadtreeCandidateFactor*q.K)
	// The expansion only needs to price the retrieved candidates: bound it
	// by a generous detour budget to the farthest one (4× the geodesic
	// distance at half urban speed covers grid detours and congestion).
	bound := m.engine.Env.MaxDeroutSec
	if len(cands) > 0 {
		far := geo.Distance(q.Anchor, cands[len(cands)-1].P)
		if b := 4 * far / (avgUrbanSpeed / 2); b < bound {
			bound = b
		}
	}
	d := m.engine.Env.deroutingMaps(q, bound, deroutTargets(cands, q.ReturnNode), exactBounds)
	defer d.Release()
	return OfferingTable{
		Anchor:      q.Anchor,
		GeneratedAt: q.Now,
		ETABase:     q.ETABase,
		Entries:     m.engine.rankPool(cands, d, q, nil),
	}
}

// Random fills the Offering Table with k random chargers inside the radius,
// ignoring every objective — the paper's lower-bound baseline. It performs
// no network expansion and no forecasting, so it is the fastest method; its
// entries carry zero scores because it never computes any.
type Random struct {
	env *Env
	rng *rand.Rand
}

// NewRandom returns the random baseline with a deterministic stream.
func NewRandom(env *Env, seed int64) *Random {
	return &Random{env: env, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Method.
func (m *Random) Name() string { return "Random" }

// Reset implements Method; the random stream continues across trips by
// design (resetting it would correlate trips).
func (m *Random) Reset() {}

// Rank implements Method.
func (m *Random) Rank(q Query) OfferingTable {
	q = q.normalized()
	pool := m.env.Chargers.Within(q.Anchor, q.RadiusM)
	t := OfferingTable{Anchor: q.Anchor, GeneratedAt: q.Now, ETABase: q.ETABase}
	if len(pool) == 0 {
		return t
	}
	n := q.K
	if n > len(pool) {
		n = len(pool)
	}
	perm := m.rng.Perm(len(pool))
	for _, idx := range perm[:n] {
		t.Entries = append(t.Entries, Entry{Charger: pool[idx]})
	}
	return t
}

// EcoChargeOptions configure the paper's method: the search radius R and
// the re-generation distance Q.
type EcoChargeOptions struct {
	// RadiusM is R: chargers farther than this from the anchor are not
	// considered. 0 selects 50 km (the paper's chosen configuration).
	RadiusM float64
	// ReuseDistM is Q: a previously generated Offering Table is adapted
	// instead of recomputed while the vehicle stays within this distance
	// of the table's anchor. 0 selects 5 km.
	ReuseDistM float64
	// ExactDerouting selects the exact derouting interval computation on
	// cache misses (a search under the lower and one under the upper
	// weights) instead of the default single mid-traffic search with scaled
	// bounds (see Env.deroutingMaps).
	ExactDerouting bool
}

func (o EcoChargeOptions) withDefaults() EcoChargeOptions {
	if o.RadiusM <= 0 {
		o.RadiusM = 50000
	}
	if o.ReuseDistM <= 0 {
		o.ReuseDistM = 5000
	}
	return o
}

// tableTTL bounds how long a cached table stays adaptable regardless of
// distance (the ECs decay with time).
const tableTTL = 15 * time.Minute

// deroutPlan is how a cache-miss ranking searches: the effort bound and
// where the travel-time bounds come from.
//
// The query's radius bounds each leg of the search: with R = 25 km the
// outbound and the return expansion each stop at ~30 minutes of driving
// (R/avgUrbanSpeed), with R = 75 km at three times that. Larger R therefore
// expands farther (slower) and keeps more chargers reachable (more accurate)
// — the Fig. 7 tradeoff. The bound is not the D scale: D is normalised by
// Env.MaxDeroutSec whatever R the query asks.
func (o EcoChargeOptions) deroutPlan(q Query) (budgetSec float64, bounds deroutBounds) {
	bounds = approxBounds
	if o.ExactDerouting {
		bounds = exactBounds
	}
	return q.RadiusM / avgUrbanSpeed, bounds
}

// evalQuery is the query a ranking under opts evaluates.
func (o EcoChargeOptions) evalQuery(q Query) Query {
	q = q.normalized()
	q.RadiusM = o.RadiusM
	return q
}

// EcoCharge is the paper's method: radius-bounded CkNN-EC evaluation with
// the dynamic bottom-up cache of §IV.C. On a cache hit (vehicle moved less
// than Q from the cached table's anchor and the table is fresh) the cached
// table is adapted — only the derouting component is re-derived from the
// new position, cheaply and approximately — instead of recomputed.
//
// The cache is the vehicle's previous Offering Table and nothing more: one
// table per method instance, one instance per trip, on one goroutine.
type EcoCharge struct {
	engine Engine
	opts   EcoChargeOptions
	// cached is the last computed table: the zero table until the first miss
	// of a trip and after Reset, which like any empty table is never adapted.
	cached       OfferingTable
	hits, misses int
}

// NewEcoCharge returns the EcoCharge method with the given options and an
// empty cache.
func NewEcoCharge(env *Env, opts EcoChargeOptions) *EcoCharge {
	return &EcoCharge{engine: Engine{Env: env}, opts: opts.withDefaults()}
}

// Name implements Method.
func (m *EcoCharge) Name() string { return "EcoCharge" }

// Reset implements Method: it drops the cached table (new trip, new cache).
func (m *EcoCharge) Reset() {
	m.cached = OfferingTable{}
	met.cacheInvalidations.Inc()
}

// SetWorkers does nothing.
//
// Deprecated: ignored — a ranking runs on the caller's goroutine. Its one
// caller is bench/replay.go, which a PR that is not the benchmark's own may
// not edit; it goes with ROADMAP item 2's benchmark PR.
func (m *EcoCharge) SetWorkers(int) {}

// Stats reports cache hits and misses since construction, used by the
// experiments to explain the Q tradeoff.
func (m *EcoCharge) Stats() (hits, misses int) { return m.hits, m.misses }

// Rank implements Method.
func (m *EcoCharge) Rank(q Query) OfferingTable {
	table, _ := m.rank(q, nil)
	return table
}

// rank is Rank for a query that may have been handed its network search
// (RunTripSupplied). The dynamic cache decides first: on a hit nothing is
// searched and the travel times go unread. used is false then, and when the
// miss ranked on a search of its own; the table is the same.
func (m *EcoCharge) rank(q Query, travel *Travel) (table OfferingTable, used bool) {
	q = m.opts.evalQuery(q)
	if m.adaptable(q) {
		m.hits++
		met.cacheHits.Inc()
		return m.adapt(m.cached, q), false
	}
	m.misses++
	met.cacheMisses.Inc()
	table, used = m.miss(q, travel, nil)
	m.cached = table
	met.cacheStores.Inc()
	return table, used
}

// adaptable is the dynamic cache's rule (§IV.C): the cached table serves the
// query when the anchor moved at most Q, the table is not older than the TTL
// and not from the future, and it has entries.
func (m *EcoCharge) adaptable(q Query) bool {
	t := &m.cached
	return len(t.Entries) > 0 && m.opts.reuses(t.Anchor, q.Anchor) &&
		q.Now.Sub(t.GeneratedAt) <= tableTTL &&
		!q.Now.Before(t.GeneratedAt)
}

// RankOnce computes the Offering Table of one stand-alone query: the
// cache-miss path of EcoCharge under the same options, with no dynamic cache
// behind it. It is the entry for callers that rank a query point once and
// never return to adapt the table — the EIS one-shot endpoints, which keep
// whole responses in their own cache. travel, when non-nil, is the
// ranking's network search, run elsewhere (a fleet shard's, by its gateway);
// used reports whether the table was ranked on it, and miss says when it is
// not. The table is the same either way, and equals what a fresh
// NewEcoCharge(env, opts) instance returns from its first Rank. Its entries
// are written into the storage rows lends (Rank): nil for a table the caller
// keeps.
func RankOnce(env *Env, opts EcoChargeOptions, q Query, travel *Travel, rows []Entry) (table OfferingTable, used bool) {
	m := EcoCharge{engine: Engine{Env: env}, opts: opts.withDefaults()}
	return m.miss(m.opts.evalQuery(q), travel, rows)
}

// miss ranks q on the cache-miss path. A query without a node (AnchorNode
// roadnet.Invalid) is ranked from the node travel's search started at — the
// point was snapped by whoever searched. When travel is nil or cannot stand
// in for the ranking's own search (suppliedDerouting says why), the ranking
// searches for itself, from q's node or, when it has none, the node its
// point snaps to; used is false then, and the table is the same.
func (m *EcoCharge) miss(q Query, travel *Travel, rows []Entry) (table OfferingTable, used bool) {
	if travel != nil {
		sq := q
		if sq.AnchorNode == roadnet.Invalid {
			sq.AnchorNode, sq.ReturnNode = travel.Anchor, travel.Anchor
		}
		if table, used = m.compute(sq, travel, rows); used {
			return table, true
		}
	}
	if q.AnchorNode == roadnet.Invalid {
		q.AnchorNode = m.engine.Env.Graph.NearestNode(q.Anchor)
		q.ReturnNode = q.AnchorNode
	}
	table, _ = m.compute(q, nil, rows)
	return table, false
}

// compute is the cache-miss path: full CkNN-EC over the chargers within R.
// Each leg's network expansion is bounded by the query's R/avgUrbanSpeed
// (deroutPlan); a charger inside R that one leg does not reach within it is
// not offered (brute force, unbounded, keeps it), which is part of the R-opt
// accuracy/cost tradeoff of Fig. 7. A reached charger is offered whatever
// its detour: one up to twice the leg bound stays in the table, its D
// normalised by Env.MaxDeroutSec and clamped to 1.
//
// With travel non-nil the network search is the caller's (miss); ok is
// false only when it was refused, and then there is no table. The entries
// are written into the storage rows lends (Rank).
func (m *EcoCharge) compute(q Query, travel *Travel, rows []Entry) (table OfferingTable, ok bool) {
	env := m.engine.Env
	// The candidates are read until the table is ranked and not after: its
	// entries point at chargers, not into the scratch.
	scratch := candBufs.Get().(*charger.Candidates)
	defer candBufs.Put(scratch)
	cands := env.Chargers.WithinInto(scratch, q.Anchor, q.RadiusM)
	budget, bounds := m.opts.deroutPlan(q)
	var d DeroutingMaps
	if travel == nil {
		d = env.deroutingMaps(q, budget, deroutTargets(cands, q.ReturnNode), bounds)
	} else if d, ok = env.suppliedDerouting(q, cands, bounds, travel); !ok {
		return OfferingTable{}, false
	}
	defer d.Release()
	return OfferingTable{
		Anchor:      q.Anchor,
		GeneratedAt: q.Now,
		ETABase:     q.ETABase,
		Entries:     m.engine.rankPool(cands, d, q, rows),
	}, true
}

// candBufs recycles the candidate retrieval's storage across rankings and
// trips, like entryBufs. It is not capped the way that is: every ranking of
// a process retrieves from the same inventory, so no scratch grows past what
// the next ranking may need.
var candBufs = sync.Pool{New: func() any { return new(charger.Candidates) }}

// adapt is the cache-hit path (§IV.C bottom-up reuse): L and A estimates of
// the cached entries are kept, only D is re-derived from the new anchor
// using the geodesic round-trip approximation — no network expansion, no
// forecasting. The approximation is what trades accuracy for speed as Q
// grows (Fig. 8).
func (m *EcoCharge) adapt(cached OfferingTable, q Query) OfferingTable {
	out := OfferingTable{
		Anchor:      q.Anchor,
		GeneratedAt: q.Now,
		ETABase:     q.ETABase,
		Adapted:     true,
	}
	out.Entries = make([]Entry, 0, len(cached.Entries))
	for _, e := range cached.Entries {
		straight := geo.Distance(q.Anchor, e.Charger.P)
		if straight > q.RadiusM {
			met.cacheAdaptDropped.Inc()
			continue // drifted out of the search radius
		}
		// Shift the cached network derouting by the geodesic movement
		// delta (round trip at urban speed): small moves perturb the
		// exact value instead of replacing it. The spread keeps the old
		// relative uncertainty.
		oldStraight := geo.Distance(cached.Anchor, e.Charger.P)
		approxSec := e.Comp.DeroutSecM + 2*(straight-oldStraight)/avgUrbanSpeed
		if approxSec < 0 {
			approxSec = 0
		}
		comp := e.Comp
		// D is re-derived at this query's issue time, so its degradation is
		// re-decided too: the cached L/A estimates (and their Degraded bits)
		// are reused as-is, but a traffic outage now widens D regardless of
		// what the cached table saw, and a recovered source re-estimates it.
		if !m.engine.Env.DSourceOK(e.Charger.ID, q.Now) {
			comp.D = ignoranceBound()
			comp.Degraded |= DegradedD
		} else {
			spread := e.Comp.D.Width() / 2
			if e.Comp.Degraded.Has(CompD) {
				// The cached D was the ignorance bound: its width carries no
				// information about the estimate, so adapt from the point
				// value instead of inheriting the [0,1] spread.
				spread = 0
			}
			dMid := approxSec / m.engine.Env.MaxDeroutSec
			comp.D = interval.FromBounds(dMid-spread, dMid+spread).Clamp(0, 1)
			comp.Degraded &^= DegradedD
		}
		comp.DeroutSecM = approxSec
		countDegraded(comp.Degraded)
		out.Entries = append(out.Entries, Entry{
			Charger: e.Charger,
			SC:      comp.SC(q.Weights),
			Comp:    comp,
		})
	}
	out.Entries = Rank(nil, out.Entries, q.K)
	return out
}
