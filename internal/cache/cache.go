// Package cache implements a set-associative cache model with LRU and
// random replacement. It backs three structures from the paper: the
// shared last-level cache (8MB, 16-way, 64B lines, Table I), Hydra's Row
// Counter Cache (4K entries per rank, 32-way, random eviction, §III-A),
// and START's reserved-LLC counter cache. The cache is keyed by an
// opaque uint64 (cache-line address or row index); it tracks dirtiness
// so evictions can generate write-back traffic.
//
// Lines are stored flat: one key and one last-use tick per way (16 bytes
// a line), plus a valid and a dirty bitmask per set, so a cache has at
// most MaxWays ways. The set index is a mask when the set count is a
// power of two and a modulus otherwise.
//
// Release hands a cache's arrays to the next New of the same shape, so
// a sweep of short simulations does not allocate a fresh LLC per run.
package cache

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
)

// MaxWays is the largest associativity: a set's valid and dirty bits
// are one uint64 each.
const MaxWays = 64

// Policy selects the replacement policy.
type Policy int

const (
	// LRU evicts the least-recently-used way.
	LRU Policy = iota
	// Random evicts a uniformly random way (Hydra's RCC policy).
	Random
)

// Config sizes a cache.
type Config struct {
	Sets   int
	Ways   int
	Policy Policy
	Seed   uint64 // randomness for the Random policy
}

// Result describes the outcome of an access.
type Result struct {
	Hit          bool
	Evicted      bool   // a valid line was displaced
	EvictedKey   uint64 // key of the displaced line
	EvictedDirty bool   // displaced line needed write-back
}

// Cache is a set-associative cache. Not safe for concurrent use; the
// simulator is single-threaded per system.
type Cache struct {
	cfg     Config
	keys    []uint64 // sets*ways, row-major by set
	lastUse []uint64 // tick of each way's last access, same layout
	valid   []uint64 // per set, bit w = way w holds a line
	dirty   []uint64 // per set, bit w = way w's line needs write-back
	full    uint64   // valid mask of a full set
	setMask uint64   // Sets-1: the set index mask when pow2
	pow2    bool     // Sets is a power of two
	tick    uint64
	rng     uint64
	hits    uint64
	misses  uint64
}

// arrays are a cache's backing store, kept between runs by Release.
type arrays struct {
	sets, ways                  int
	keys, lastUse, valid, dirty []uint64
}

// spare is the free list Release fills and New takes from. It is a
// plain list rather than a sync.Pool, which would drop entries at every
// GC and make allocation totals jitter by whole arrays. It holds at
// most GOMAXPROCS entries, the most simulations that run at once
// without sharing a CPU.
var spare struct {
	sync.Mutex
	list []arrays
}

// take removes and returns the most recently released arrays of the
// given shape, if any.
func take(sets, ways int) (arrays, bool) {
	spare.Lock()
	defer spare.Unlock()
	for i := len(spare.list) - 1; i >= 0; i-- {
		if a := spare.list[i]; a.sets == sets && a.ways == ways {
			spare.list = slices.Delete(spare.list, i, i+1)
			return a, true
		}
	}
	return arrays{}, false
}

// New returns a cache with the given configuration.
func New(cfg Config) (*Cache, error) {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: sets (%d) and ways (%d) must be positive", cfg.Sets, cfg.Ways)
	}
	if cfg.Ways > MaxWays {
		return nil, fmt.Errorf("cache: %d ways exceeds the maximum of %d", cfg.Ways, MaxWays)
	}
	rng := cfg.Seed
	if rng == 0 {
		rng = 0x9E3779B97F4A7C15
	}
	a, ok := take(cfg.Sets, cfg.Ways)
	if ok {
		// Stale keys and last-use ticks are never read without a valid
		// bit, as after Reset.
		clear(a.valid)
		clear(a.dirty)
	} else {
		a = arrays{
			keys:    make([]uint64, cfg.Sets*cfg.Ways),
			lastUse: make([]uint64, cfg.Sets*cfg.Ways),
			valid:   make([]uint64, cfg.Sets),
			dirty:   make([]uint64, cfg.Sets),
		}
	}
	return &Cache{
		cfg:     cfg,
		keys:    a.keys,
		lastUse: a.lastUse,
		valid:   a.valid,
		dirty:   a.dirty,
		full:    ^uint64(0) >> (MaxWays - cfg.Ways),
		setMask: uint64(cfg.Sets - 1),
		pow2:    cfg.Sets&(cfg.Sets-1) == 0,
		rng:     rng,
	}, nil
}

// Release hands the cache's arrays to the next New of the same shape
// (Sets, Ways) and leaves the cache unusable: any later Access,
// Contains or Invalidate panics. Hits and Misses still read. Call it
// only when nothing else holds the cache; a second call is a no-op.
// When the free list is full the oldest entry is dropped for the GC.
func (c *Cache) Release() {
	if c.valid == nil {
		return
	}
	a := arrays{c.cfg.Sets, c.cfg.Ways, c.keys, c.lastUse, c.valid, c.dirty}
	c.keys, c.lastUse, c.valid, c.dirty = nil, nil, nil, nil
	spare.Lock()
	defer spare.Unlock()
	if n := len(spare.list) - runtime.GOMAXPROCS(0) + 1; n > 0 {
		spare.list = slices.Delete(spare.list, 0, n)
	}
	spare.list = append(spare.list, a)
}

// MustNew is New but panics on bad config.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// NewBySize builds an LRU cache of totalBytes capacity with the given
// associativity and line size (e.g. the Table I LLC: 8MB, 16, 64).
func NewBySize(totalBytes, ways, lineBytes int) (*Cache, error) {
	if totalBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		return nil, fmt.Errorf("cache: sizes must be positive")
	}
	linesTotal := totalBytes / lineBytes
	if linesTotal < ways {
		return nil, fmt.Errorf("cache: capacity %dB too small for %d ways", totalBytes, ways)
	}
	return New(Config{Sets: linesTotal / ways, Ways: ways})
}

// Sets returns the set count.
func (c *Cache) Sets() int { return c.cfg.Sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// Entries returns total line capacity.
func (c *Cache) Entries() int { return c.cfg.Sets * c.cfg.Ways }

// Hits returns the number of hits since creation (or Reset).
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the number of misses since creation (or Reset).
func (c *Cache) Misses() uint64 { return c.misses }

// HitRate returns hits/(hits+misses), or 0 with no accesses.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

func (c *Cache) setIndex(key uint64) int {
	// Mix before taking the modulus so structured keys (strided rows)
	// still spread across sets.
	h := key
	h ^= h >> 17
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	if c.pow2 {
		return int(h & c.setMask)
	}
	return int(h % uint64(c.cfg.Sets))
}

func (c *Cache) xorshift() uint64 {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return c.rng
}

// find returns the way of set holding key, or -1.
func (c *Cache) find(set int, key uint64) int {
	base, valid := set*c.cfg.Ways, c.valid[set]
	for w, k := range c.keys[base : base+c.cfg.Ways] {
		if k == key && valid&(1<<w) != 0 {
			return w
		}
	}
	return -1
}

// Access looks up key, allocating on miss, and returns what happened.
// isWrite marks the line dirty on hit or allocation. The victim is the
// first invalid way, else (LRU) the first least-recently-used way or
// (Random) a uniformly drawn way.
func (c *Cache) Access(key uint64, isWrite bool) Result {
	set := c.setIndex(key)
	base := set * c.cfg.Ways
	c.tick++

	if w := c.find(set, key); w >= 0 {
		c.hits++
		c.lastUse[base+w] = c.tick
		if isWrite {
			c.dirty[set] |= 1 << w
		}
		return Result{Hit: true}
	}
	c.misses++

	var victim int
	res := Result{}
	switch {
	case c.valid[set] != c.full:
		victim = bits.TrailingZeros64(^c.valid[set])
	case c.cfg.Policy == Random:
		victim = int(c.xorshift() % uint64(c.cfg.Ways))
	default:
		use := c.lastUse[base : base+c.cfg.Ways]
		for w, u := range use {
			if u < use[victim] {
				victim = w
			}
		}
	}
	bit := uint64(1) << victim
	if c.valid[set]&bit != 0 {
		res.Evicted = true
		res.EvictedKey = c.keys[base+victim]
		res.EvictedDirty = c.dirty[set]&bit != 0
	}
	c.keys[base+victim] = key
	c.lastUse[base+victim] = c.tick
	c.valid[set] |= bit
	if isWrite {
		c.dirty[set] |= bit
	} else {
		c.dirty[set] &^= bit
	}
	return res
}

// Contains reports whether key is resident without updating recency or
// statistics.
func (c *Cache) Contains(key uint64) bool {
	return c.find(c.setIndex(key), key) >= 0
}

// Reset invalidates every line and clears statistics.
func (c *Cache) Reset() {
	clear(c.valid)
	clear(c.dirty)
	c.hits, c.misses, c.tick = 0, 0, 0
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, v := range c.valid {
		n += bits.OnesCount64(v)
	}
	return n
}
