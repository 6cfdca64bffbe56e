package cache

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Sets: 0, Ways: 4}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := New(Config{Sets: 4, Ways: 0}); err == nil {
		t.Fatal("expected error")
	}
	for _, ways := range []int{65, 1000} {
		_, err := New(Config{Sets: 4, Ways: ways})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d ways", ways)) {
			t.Fatalf("%d ways: err = %v, want one naming the way count", ways, err)
		}
	}
	if _, err := New(Config{Sets: 4, Ways: MaxWays}); err != nil {
		t.Fatalf("%d ways rejected: %v", MaxWays, err)
	}
	if _, err := NewBySize(0, 16, 64); err == nil {
		t.Fatal("expected error")
	}
	if _, err := NewBySize(64, 16, 64); err == nil {
		t.Fatal("expected error for capacity < ways")
	}
}

func TestNewBySizeLLC(t *testing.T) {
	// Table I LLC: 8MB, 16-way, 64B lines -> 8192 sets.
	c, err := NewBySize(8<<20, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sets() != 8192 || c.Ways() != 16 {
		t.Fatalf("LLC dims = %d x %d", c.Sets(), c.Ways())
	}
	if c.Entries() != 131072 {
		t.Fatalf("entries = %d", c.Entries())
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := MustNew(Config{Sets: 16, Ways: 2})
	if r := c.Access(100, false); r.Hit {
		t.Fatal("first access must miss")
	}
	if r := c.Access(100, false); !r.Hit {
		t.Fatal("second access must hit")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("stats = %d/%d", c.Hits(), c.Misses())
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", c.HitRate())
	}
}

func TestHitRateNoAccesses(t *testing.T) {
	c := MustNew(Config{Sets: 4, Ways: 1})
	if c.HitRate() != 0 {
		t.Fatal("empty hit rate should be 0")
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(Config{Sets: 1, Ways: 2, Policy: LRU})
	c.Access(1, false)
	c.Access(2, false)
	c.Access(1, false)      // 1 is now MRU
	r := c.Access(3, false) // evicts LRU = 2
	if !r.Evicted || r.EvictedKey != 2 {
		t.Fatalf("evicted %v (%d), want key 2", r.Evicted, r.EvictedKey)
	}
	if !c.Contains(1) || c.Contains(2) || !c.Contains(3) {
		t.Fatal("residency wrong after eviction")
	}
}

func TestDirtyEviction(t *testing.T) {
	c := MustNew(Config{Sets: 1, Ways: 1})
	c.Access(1, true) // dirty
	r := c.Access(2, false)
	if !r.Evicted || !r.EvictedDirty {
		t.Fatalf("expected dirty eviction, got %+v", r)
	}
	r = c.Access(3, false) // 2 was clean
	if !r.Evicted || r.EvictedDirty {
		t.Fatalf("expected clean eviction, got %+v", r)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := MustNew(Config{Sets: 1, Ways: 1})
	c.Access(1, false)
	c.Access(1, true) // hit, marks dirty
	r := c.Access(2, false)
	if !r.EvictedDirty {
		t.Fatal("write hit should have dirtied the line")
	}
}

func TestRandomPolicyEvictsWithinSet(t *testing.T) {
	c := MustNew(Config{Sets: 2, Ways: 4, Policy: Random, Seed: 7})
	// Fill one set with keys mapping to it.
	var keys []uint64
	set0 := -1
	for k := uint64(0); len(keys) < 5; k++ {
		s := c.setIndex(k)
		if set0 == -1 {
			set0 = s
		}
		if s == set0 {
			keys = append(keys, k)
		}
	}
	for _, k := range keys[:4] {
		c.Access(k, false)
	}
	r := c.Access(keys[4], false)
	if !r.Evicted {
		t.Fatal("full set must evict")
	}
	found := false
	for _, k := range keys[:4] {
		if r.EvictedKey == k {
			found = true
		}
	}
	if !found {
		t.Fatalf("evicted key %d not from the filled set", r.EvictedKey)
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew(Config{Sets: 4, Ways: 2})
	c.Access(9, true)
	present, dirty := c.Invalidate(9)
	if !present || !dirty {
		t.Fatalf("invalidate = %v, %v", present, dirty)
	}
	if c.Contains(9) {
		t.Fatal("still resident after invalidate")
	}
	present, _ = c.Invalidate(9)
	if present {
		t.Fatal("second invalidate should miss")
	}
}

func TestReset(t *testing.T) {
	c := MustNew(Config{Sets: 4, Ways: 2})
	c.Access(1, false)
	c.Access(1, false)
	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 || c.Occupancy() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	c := MustNew(Config{Sets: 8, Ways: 2})
	for k := uint64(0); k < 1000; k++ {
		c.Access(k, false)
	}
	if c.Occupancy() > c.Entries() {
		t.Fatalf("occupancy %d > capacity %d", c.Occupancy(), c.Entries())
	}
}

// Property: Contains never lies — after accessing a key it is resident
// until something else could have evicted it; immediately after access
// it must be present.
func TestAccessThenContainsProperty(t *testing.T) {
	c := MustNew(Config{Sets: 16, Ways: 4})
	f := func(key uint64) bool {
		c.Access(key, false)
		return c.Contains(key)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: eviction results only report keys that were inserted.
func TestEvictionReportsRealKeysProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		c := MustNew(Config{Sets: 2, Ways: 2})
		inserted := map[uint64]bool{}
		for _, k := range keys {
			r := c.Access(uint64(k), false)
			if r.Evicted && !inserted[r.EvictedKey] {
				return false
			}
			inserted[uint64(k)] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkingSetLargerThanCacheThrashes(t *testing.T) {
	c := MustNew(Config{Sets: 8, Ways: 2}) // 16 lines
	// Cycle a 64-key working set twice: second pass should still miss
	// mostly (LRU thrash).
	for pass := 0; pass < 2; pass++ {
		for k := uint64(0); k < 64; k++ {
			c.Access(k, false)
		}
	}
	if c.HitRate() > 0.2 {
		t.Fatalf("thrash workload hit rate = %v, expected near 0", c.HitRate())
	}
}

func TestSmallWorkingSetHits(t *testing.T) {
	c := MustNew(Config{Sets: 64, Ways: 4}) // 256 lines
	for pass := 0; pass < 10; pass++ {
		for k := uint64(0); k < 32; k++ {
			c.Access(k, false)
		}
	}
	if c.HitRate() < 0.85 {
		t.Fatalf("resident workload hit rate = %v", c.HitRate())
	}
}

// TestAccessDoesNotAllocate: hits, fills and evictions allocate nothing
// under either policy.
func TestAccessDoesNotAllocate(t *testing.T) {
	for _, p := range []Policy{LRU, Random} {
		c := MustNew(Config{Sets: 64, Ways: 16, Policy: p})
		key := uint64(0)
		access := func() {
			c.Access(key%4096, key%3 == 0)
			key += 7
		}
		if a := testing.AllocsPerRun(10_000, access); a != 0 {
			t.Fatalf("policy %d: Access allocates %.1f times per call", p, a)
		}
	}
}

// TestReleaseLeavesCacheUnusable pins Release's contract: counters
// still read, any later access panics, and a second Release returns
// nothing to the free list.
func TestReleaseLeavesCacheUnusable(t *testing.T) {
	cfg := Config{Sets: 3, Ways: 5}
	c := MustNew(cfg)
	c.Access(1, true)
	c.Release()
	c.Release()
	if c.Misses() != 1 {
		t.Fatalf("Misses after Release = %d, want 1", c.Misses())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Access after Release did not panic")
			}
		}()
		c.Access(1, false)
	}()
	a, b := MustNew(cfg), MustNew(cfg)
	for _, n := range []*Cache{a, b} {
		if len(n.keys) != cfg.Sets*cfg.Ways || len(n.valid) != cfg.Sets {
			t.Fatalf("New after a double Release got %d keys and %d sets", len(n.keys), len(n.valid))
		}
	}
}

// TestNewAndReleaseFromManyGoroutines checks that caches built from
// the free list at once never share arrays: every goroutine finds its
// cache empty and then holding exactly its own keys.
func TestNewAndReleaseFromManyGoroutines(t *testing.T) {
	cfg := Config{Sets: 1, Ways: MaxWays}
	var wg sync.WaitGroup
	for g := uint64(0); g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := MustNew(cfg)
				if n := c.Occupancy(); n != 0 {
					t.Errorf("goroutine %d: new cache holds %d lines", g, n)
					return
				}
				for k := uint64(0); k < MaxWays; k++ {
					c.Access(g<<32|k, k%2 == 0)
				}
				for k := uint64(0); k < MaxWays; k++ {
					if !c.Contains(g<<32 | k) {
						t.Errorf("goroutine %d: key %d missing", g, k)
						return
					}
				}
				c.Release()
			}
		}()
	}
	wg.Wait()
}
