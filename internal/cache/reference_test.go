package cache

import (
	"math/rand/v2"
	"runtime"
	"testing"
)

// refCache is the per-line reference model: one struct per line, a
// linear victim scan and the set index as a plain modulus. It is the
// cache's earlier layout, kept as the oracle the flat layout must match
// access for access.
type refCache struct {
	cfg          Config
	lines        []refLine
	tick, rng    uint64
	hits, misses uint64
}

type refLine struct {
	key     uint64
	valid   bool
	dirty   bool
	lastUse uint64
}

func newRef(cfg Config) *refCache {
	rng := cfg.Seed
	if rng == 0 {
		rng = 0x9E3779B97F4A7C15
	}
	return &refCache{cfg: cfg, lines: make([]refLine, cfg.Sets*cfg.Ways), rng: rng}
}

func (c *refCache) base(key uint64) int {
	h := key
	h ^= h >> 17
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return int(h%uint64(c.cfg.Sets)) * c.cfg.Ways
}

func (c *refCache) Access(key uint64, isWrite bool) Result {
	base := c.base(key)
	c.tick++
	victim := -1
	victimUse := ^uint64(0)
	for i := base; i < base+c.cfg.Ways; i++ {
		ln := &c.lines[i]
		if ln.valid && ln.key == key {
			c.hits++
			ln.lastUse = c.tick
			if isWrite {
				ln.dirty = true
			}
			return Result{Hit: true}
		}
		if !ln.valid {
			if victim == -1 || c.lines[victim].valid {
				victim, victimUse = i, 0
			}
			continue
		}
		if ln.lastUse < victimUse && (victim == -1 || c.lines[victim].valid) {
			victim, victimUse = i, ln.lastUse
		}
	}
	c.misses++
	if c.cfg.Policy == Random && c.lines[victim].valid {
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		victim = base + int(c.rng%uint64(c.cfg.Ways))
	}
	res := Result{}
	if v := c.lines[victim]; v.valid {
		res = Result{Evicted: true, EvictedKey: v.key, EvictedDirty: v.dirty}
	}
	c.lines[victim] = refLine{key: key, valid: true, dirty: isWrite, lastUse: c.tick}
	return res
}

func (c *refCache) Invalidate(key uint64) (present, dirty bool) {
	base := c.base(key)
	for i := base; i < base+c.cfg.Ways; i++ {
		if c.lines[i].valid && c.lines[i].key == key {
			d := c.lines[i].dirty
			c.lines[i] = refLine{}
			return true, d
		}
	}
	return false, false
}

func (c *refCache) Reset() {
	clear(c.lines)
	c.hits, c.misses, c.tick = 0, 0, 0
}

func (c *refCache) Occupancy() int {
	n := 0
	for _, ln := range c.lines {
		if ln.valid {
			n++
		}
	}
	return n
}

// TestMatchesReferenceModel runs seeded random access streams through
// the cache and the per-line reference and compares every Result and
// Invalidate outcome, the hit and miss counts and the occupancy. The
// streams mix a hot working set (hits, recency updates) with a key
// space twice the capacity (fills, evictions, dirty write-backs), plus
// occasional invalidations and one reset.
//
// Each case's cache reuses arrays that a different stream left full
// and dirty, so New must clear them; caches of other shapes released
// after them must not be taken instead.
func TestMatchesReferenceModel(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 3 {
		// The free list must hold all three released caches.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	}
	cases := []struct {
		name string
		cfg  Config
		ops  int
	}{
		{"llc-lru-16way-8192sets", Config{Sets: 8192, Ways: 16}, 600_000},
		{"rcc-random-32way", Config{Sets: 128, Ways: 32, Policy: Random, Seed: 5}, 100_000},
		{"lru-12288sets", Config{Sets: 12288, Ways: 16}, 800_000},
		{"random-12288sets", Config{Sets: 12288, Ways: 4, Policy: Random}, 200_000},
		{"lru-64way", Config{Sets: 8, Ways: 64}, 50_000},
		{"direct-mapped", Config{Sets: 100, Ways: 1}, 20_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Same sets, other ways; and other sets, same line count.
			others := []*Cache{
				MustNew(Config{Sets: tc.cfg.Sets, Ways: tc.cfg.Ways%MaxWays + 1}),
				MustNew(Config{Sets: 2 * tc.cfg.Sets, Ways: max(tc.cfg.Ways/2, 1)}),
			}
			stale := fillDirty(t, tc.cfg)
			for _, o := range others {
				o.Release()
			}
			got, want := MustNew(tc.cfg), newRef(tc.cfg)
			if &got.keys[0] != stale {
				t.Fatal("New did not take the released arrays of its shape")
			}
			rng := rand.New(rand.NewPCG(1, uint64(tc.cfg.Sets*tc.cfg.Ways)))
			span := uint64(4 * tc.cfg.Sets * tc.cfg.Ways)
			hot := span / 16
			var evictions, dirty int
			for i := 0; i < tc.ops; i++ {
				key := rng.Uint64N(span)
				if rng.IntN(2) == 0 {
					key = rng.Uint64N(hot)
				}
				switch r := rng.IntN(1000); {
				case r == 0:
					gp, gd := got.Invalidate(key)
					wp, wd := want.Invalidate(key)
					if gp != wp || gd != wd {
						t.Fatalf("op %d: Invalidate(%d) = %v,%v, reference %v,%v", i, key, gp, gd, wp, wd)
					}
				case i == tc.ops/2:
					got.Reset()
					want.Reset()
				default:
					write := rng.IntN(3) == 0
					g, w := got.Access(key, write), want.Access(key, write)
					if g != w {
						t.Fatalf("op %d: Access(%d, %v) = %+v, reference %+v", i, key, write, g, w)
					}
					if g.Evicted {
						evictions++
					}
					if g.EvictedDirty {
						dirty++
					}
				}
				if i%10_000 == 0 || i == tc.ops-1 {
					if got.Hits() != want.hits || got.Misses() != want.misses || got.Occupancy() != want.Occupancy() {
						t.Fatalf("op %d: hits/misses/occupancy %d/%d/%d, reference %d/%d/%d", i,
							got.Hits(), got.Misses(), got.Occupancy(), want.hits, want.misses, want.Occupancy())
					}
				}
			}
			if got.Hits() == 0 || evictions < tc.ops/20 || dirty == 0 {
				t.Fatalf("stream too tame: %d hits, %d evictions, %d dirty", got.Hits(), evictions, dirty)
			}
		})
	}
}

// fillDirty drives a cache of cfg's shape with its own seeded stream
// of writes until every line is valid and dirty, releases it and
// returns the address of its first key.
func fillDirty(t *testing.T, cfg Config) *uint64 {
	t.Helper()
	c := MustNew(cfg)
	rng := rand.New(rand.NewPCG(2, uint64(cfg.Sets)))
	for filled := 0; filled < c.Entries(); {
		if r := c.Access(rng.Uint64(), true); !r.Hit && !r.Evicted {
			filled++
		}
	}
	for set, d := range c.dirty {
		if c.valid[set] != c.full || d != c.full {
			t.Fatalf("set %d: valid %#x, dirty %#x after the fill", set, c.valid[set], d)
		}
	}
	keys := &c.keys[0]
	c.Release()
	return keys
}
