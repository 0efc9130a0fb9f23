package cknn

import (
	"sync"
	"sync/atomic"
)

// cacheStripes is the number of independently locked shards of a
// ShardedCache. 32 keeps worst-case contention at 1/32 of a single mutex
// while the per-shard maps stay dense.
const cacheStripes = 32

// ShardedCache is the storage of the paper's dynamic cache (§IV.C)
// generalized to fleet service: it holds one Offering Table slot per owner
// (one owner per trip/vehicle), striped across independently locked shards
// so concurrent trips sharing one Env never serialize on a single lock.
// Slots are private to their owner — a trip never adapts another trip's
// table — which is what keeps k concurrent trips byte-identical to k fresh
// single-trip runs (the cache coherence invariant of DESIGN.md §6).
//
// The zero value is not usable; construct with NewShardedCache.
type ShardedCache struct {
	nextOwner atomic.Uint64
	shards    [cacheStripes]cacheShard
}

type cacheShard struct {
	mu     sync.Mutex
	tables map[uint64]OfferingTable
}

// NewShardedCache returns an empty cache ready for concurrent use.
func NewShardedCache() *ShardedCache {
	c := &ShardedCache{}
	for i := range c.shards {
		c.shards[i].tables = make(map[uint64]OfferingTable)
	}
	return c
}

// NewOwner allocates a fresh slot key. Owners are handed out sequentially,
// so the shard function spreads them multiplicatively.
func (c *ShardedCache) NewOwner() uint64 { return c.nextOwner.Add(1) }

func (c *ShardedCache) shard(owner uint64) *cacheShard {
	// Fibonacci hashing: sequential owners land on distinct stripes.
	return &c.shards[(owner*0x9E3779B97F4A7C15)>>(64-5)]
}

// Lookup returns the owner's cached table when it is adaptable for the
// query under the options: the anchor moved at most Q, the table is not
// older than the TTL (and not from the future), and it is non-empty.
func (c *ShardedCache) Lookup(owner uint64, q Query, opts EcoChargeOptions) (OfferingTable, bool) {
	s := c.shard(owner)
	s.mu.Lock()
	t, ok := s.tables[owner]
	s.mu.Unlock()
	if ok && opts.reuses(t.Anchor, q.Anchor) &&
		q.Now.Sub(t.GeneratedAt) <= opts.TTL &&
		!q.Now.Before(t.GeneratedAt) &&
		len(t.Entries) > 0 {
		met.cacheHits.Inc()
		return t, true
	}
	met.cacheMisses.Inc()
	return OfferingTable{}, false
}

// Store replaces the owner's cached table.
func (c *ShardedCache) Store(owner uint64, t OfferingTable) {
	s := c.shard(owner)
	s.mu.Lock()
	_, existed := s.tables[owner]
	s.tables[owner] = t
	s.mu.Unlock()
	met.cacheStores.Inc()
	if !existed {
		met.cacheSlots.Inc()
	}
}

// Invalidate drops the owner's slot (new trip, new cache).
func (c *ShardedCache) Invalidate(owner uint64) {
	s := c.shard(owner)
	s.mu.Lock()
	_, existed := s.tables[owner]
	delete(s.tables, owner)
	s.mu.Unlock()
	met.cacheInvalidations.Inc()
	if existed {
		met.cacheSlots.Dec()
	}
}

// Len reports the number of live slots across all shards (diagnostics).
func (c *ShardedCache) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].tables)
		c.shards[i].mu.Unlock()
	}
	return n
}
