// Package fleet turns the single-process EIS into a partition-tolerant
// sharded deployment: N EIS instances each own a rendezvous-hashed
// partition of the charger inventory, and a thin gateway in front fans the
// two rankings (/offering, /offering/trip) out, health-checks the members,
// hedges slow shards, and merges per-shard Offering Tables into exactly the
// table a single EIS over the whole inventory would have served. The four
// data feeds need no shard: the gateway holds the whole world its shards
// were built from and answers them with the EIS's own handlers (eis.Feeds).
//
// The design contract is the degraded-component machinery of
// docs/resilience.md lifted one level up: a shard that dies, hangs or flaps
// mid-trip never makes a ranking fail and never silently shrinks a table.
// Its chargers stay in every Offering Table at the ignorance bound [0,1],
// tagged cknn.DegradedShard, so a client can tell "this charger scored
// badly" from "this charger's shard did not answer" — and nothing is ever
// wrongly pruned.
//
// Correctness of the merge rests on two properties the tests pin:
//
//  1. Per-charger scores are shard-independent. Every Estimated Component
//     of a charger is a function of the charger, the query and the
//     environment models — never of the other candidates — provided the
//     shard environments share the parent's normalizers (MaxLKW,
//     MaxDeroutSec), which ShardEnv guarantees.
//  2. A table is cknn.Select's: the top-k under the SC_max total order
//     (the eq. 6 intersection plus its SC_max-ordered padding is set-wise
//     that top-k), one entry per charger, its best, emitted in SC-midpoint
//     order. Restricting a total order to a partition preserves relative
//     order, so the union of per-shard top-k tables contains the global
//     top-k, and the gateway recovers it exactly by running the same
//     cknn.Select over the shards' entries.
package fleet

import (
	"fmt"

	"ecocharge/internal/charger"
	"ecocharge/internal/cknn"
)

// Partition assigns chargers to shards by rendezvous (highest-random-
// weight) hashing over the charger ID: every participant — shard builders
// and gateway alike — computes the same owner without any shared state, and
// changing N moves only the minimal set of chargers.
type Partition struct {
	// N is the shard count; ShardOf panics when it is not positive.
	N int
}

// ShardOf returns the owning shard index in [0, N) for a charger ID.
func (p Partition) ShardOf(id int64) int {
	if p.N <= 0 {
		panic(fmt.Sprintf("fleet: partition over %d shards", p.N))
	}
	best, bestScore := 0, uint64(0)
	for s := 0; s < p.N; s++ {
		score := rendezvousScore(uint64(s), uint64(id))
		if score > bestScore || (score == bestScore && s < best) {
			best, bestScore = s, score
		}
	}
	return best
}

// rendezvousScore mixes (shard, charger) with the same splitmix64 finalizer
// the fault and obs layers use for deterministic hashing.
func rendezvousScore(shard, id uint64) uint64 {
	x := shard*0x9e3779b97f4a7c15 + id + 0x632be59bd9b4e019
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ShardEnv restricts a parent environment to the chargers shard owns under
// an N-way partition. The road network, the EC models and — critically —
// the normalizers MaxLKW and MaxDeroutSec are shared with the parent, so a
// charger's Estimated Components (and therefore its SC interval) are
// bit-identical whether evaluated against the shard environment or the
// whole-world one. Recomputing MaxLKW from the partition would silently
// re-scale L per shard and break the cross-shard merge.
func ShardEnv(parent *cknn.Env, shard, n int) (*cknn.Env, error) {
	if shard < 0 || shard >= n {
		return nil, fmt.Errorf("fleet: shard %d outside [0,%d)", shard, n)
	}
	part := Partition{N: n}
	var own []charger.Charger
	for _, c := range parent.Chargers.All() {
		if part.ShardOf(c.ID) == shard {
			own = append(own, c)
		}
	}
	set, err := charger.NewSet(own)
	if err != nil {
		return nil, fmt.Errorf("fleet: building shard %d charger set: %w", shard, err)
	}
	env := *parent
	env.Chargers = set
	return &env, nil
}
