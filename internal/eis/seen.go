package eis

import (
	"sync/atomic"
	"time"
)

// SeenFilter remembers which response-cache keys were asked for within their
// TTL: the one answer to "will this key come back?" of a fleet. A gateway
// keeps one per shard, of the keys it fanned out to it: for those the shard
// has a cached table, or is computing one, and a travel block would be
// searched for and thrown away. A shard keeps one of its own misses: a full
// stripe of its response cache stores a new key only if the filter saw it
// before (respCache.admits), so a table nobody asks for again is answered and
// dropped instead of evicting one that somebody might.
//
// It is a cost hint, fixed in size and lock-free, and wrong in both
// directions — it forgets keys (sets overflow, racing writers overwrite each
// other) and remembers what the cache evicted — which costs a put or a search
// and never changes a table.
//
// A slot packs a key's 31-bit fingerprint and a mark over the Unix second
// the key was sent at, in the request's own time, which is the time the
// cache expires entries by. Eight slots — one cache line — make a set, and
// there are as many slots as a server's response cache holds entries
// (4 096): what the cache can hold, the filter can remember. The mark says
// the key was asked for again. A full set gives up a key that was not before
// one that was, as a full cache stripe declines it (respCache.admits) and for
// its reason: the keys that come back are a few hundred cells, the keys that
// do not are every personalised ranking, and a filter that drops a cell for
// one of those has the gateway search for a shard that then answers from its
// cache.
type SeenFilter struct {
	slots [filterSets * filterWays]atomic.Uint64
}

const (
	filterWays = 8
	filterSets = cacheMaxEntries / filterWays

	seenSecond = 1<<32 - 1 // the second the key was sent at
	seenAgain  = 1 << 32   // the key was asked for again within its TTL
)

// Observe reports whether the key (Offering.KeyHash) was asked for within
// the cache's TTL of now, and records it as asked for now if not.
func (f *SeenFilter) Observe(hash uint64, now time.Time) bool {
	set := f.slots[hash%filterSets*filterWays:][:filterWays]
	fp := (hash>>33 | 1) << 33 // never 0: an empty slot matches no key
	sec := uint32(now.Unix())
	expired, once := -1, -1
	for i := range set {
		e := set[i].Load()
		// Age on a 32-bit circle. A request issued before the one that was
		// recorded has a negative age and is fresh, as it is to the cache,
		// which only asks whether now is past the entry's expiry.
		fresh := e != 0 && time.Duration(int32(sec-uint32(e)))*time.Second <= cacheTTL
		switch {
		case fresh && e&^(seenAgain|seenSecond) == fp:
			if e&seenAgain == 0 {
				set[i].CompareAndSwap(e, e|seenAgain)
			}
			return true
		case !fresh && expired < 0:
			expired = i
		case fresh && e&seenAgain == 0 && once < 0:
			once = i
		}
	}
	victim := expired
	if victim < 0 {
		victim = once
	}
	if victim < 0 {
		// Every key of the set came back: all start over, and one goes.
		for i := range set {
			e := set[i].Load()
			set[i].CompareAndSwap(e, e&^seenAgain)
		}
		victim = int(hash >> 10 % filterWays)
	}
	set[victim].Store(fp | uint64(sec))
	return false
}
