package eis

// The filter of the keys asked for lately (seen.go), which a fleet gateway
// keeps per shard and a server keeps of its own misses.

import (
	"sync"
	"testing"
	"time"
)

// TestSeenFilter pins the filter's contract as far as it has one: a key is
// seen for its TTL in request time and not after, other keys are not seen,
// time running backwards does not expire anything, a full set keeps taking
// keys, and the keys that were asked for again outlive any number that were
// not.
func TestSeenFilter(t *testing.T) {
	var f SeenFilter
	const ttl = cacheTTL
	now := fixedNow
	key := uint64(0xdeadbeefcafe0123)
	if f.Observe(key, now) {
		t.Fatal("an empty filter has seen a key")
	}
	for _, at := range []time.Time{now, now.Add(ttl), now.Add(-time.Hour)} {
		if !f.Observe(key, at) {
			t.Fatalf("the key is not seen at %v, within its TTL of %v", at, now)
		}
	}
	if f.Observe(key^1<<40, now) {
		t.Fatal("another key of the same set is seen")
	}
	if f.Observe(key, now.Add(ttl+time.Second)) {
		t.Fatal("the key is still seen past its TTL")
	}
	if !f.Observe(key, now.Add(ttl+2*time.Second)) {
		t.Fatal("the key was not recorded again when it expired")
	}

	// One set (5), fingerprints of their own. Three cells that are asked for
	// again, then a flood of one-shot keys: the cells are still there, and so
	// is the last of the flood.
	f = SeenFilter{}
	inSet5 := func(i uint64) uint64 { return (2*i+1)<<33 | 5 }
	cells := []uint64{inSet5(1), inSet5(2), inSet5(3)}
	for round := 0; round < 2; round++ {
		for _, c := range cells {
			if f.Observe(c, now) != (round > 0) {
				t.Fatalf("cell %x round %d: wrong verdict", c, round)
			}
		}
	}
	for i := uint64(100); i < 100+20*filterWays; i++ {
		if f.Observe(inSet5(i), now) {
			t.Fatalf("one-shot key %d was seen before it was sent", i)
		}
	}
	if !f.Observe(inSet5(100+20*filterWays-1), now) {
		t.Fatal("the last one-shot key was not recorded")
	}
	for _, c := range cells {
		if !f.Observe(c, now) {
			t.Fatalf("cell %x was dropped for keys nobody asked for twice", c)
		}
	}
	// A set of nothing but keys that came back still takes a new one.
	f = SeenFilter{}
	for round := 0; round < 2; round++ {
		for i := uint64(1); i <= filterWays; i++ {
			f.Observe(inSet5(i), now)
		}
	}
	if f.Observe(inSet5(99), now) || !f.Observe(inSet5(99), now) {
		t.Fatal("a set full of returning keys refused a new key")
	}
}

// TestSeenFilterConcurrent: handlers share a shard's filter without a lock.
// Racing writers to one set may cost each other a key; a key whose set
// nobody else writes to is seen from its second observation on, whatever
// the interleaving.
func TestSeenFilterConcurrent(t *testing.T) {
	var f SeenFilter
	const goroutines, keys = 8, 64
	var wg sync.WaitGroup
	for g := uint64(0); g < goroutines; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for k := uint64(0); k < keys; k++ {
					// Sixty-four sets of its own per goroutine.
					key := (2*g+1)<<33 | (g*keys + k)
					if seen := f.Observe(key, fixedNow); seen != (round > 0) {
						t.Errorf("goroutine %d key %d round %d: seen=%v", g, k, round, seen)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
