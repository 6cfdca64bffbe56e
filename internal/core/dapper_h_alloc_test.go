package core

import (
	"math"
	"runtime"
	"testing"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

// TestDapperHTableBytes pins DAPPER-H's state at 8 bytes per group per
// rank plus a small constant (struct, ciphers) on the baseline geometry:
// 2 ranks x 8,192 groups x 8 B = 128 KiB per channel. A tracker built
// after another of its shape was released takes that one's tables from
// the free list and allocates only the constant. Not parallel: it
// reads the process-wide allocation counter, which also counts whatever
// the runtime or another goroutine allocates during the call. A call
// also allocates the shared group tables for keys no tracker has used
// yet, and the constructor's own bytes are the same on every call, so
// the test takes the least of several calls' deltas.
func TestDapperHTableBytes(t *testing.T) {
	cfg := Config{Geometry: dram.Baseline(), NRH: 500}
	const slack = 1024
	tables := uint64(8 * cfg.NumGroups() * cfg.Geometry.Ranks)
	for _, tc := range []struct {
		name     string
		released bool // a tracker of the shape was released just before
		want     uint64
	}{
		{"fresh", false, tables + slack},
		{"after-release", true, slack},
	} {
		got := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			if tc.released {
				mustDapperH(t, 0, cfg).Release()
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			d, err := NewDapperH(0, cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(d)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if got > tc.want {
			t.Fatalf("%s: NewDapperH allocated %d B, want at most %d (8 B x %d groups x %d ranks = %d in tables)",
				tc.name, got, tc.want, cfg.NumGroups(), cfg.Geometry.Ranks, tables)
		}
	}
}

// TestDapperHReleasedTablesComeBackClear pins the free list's aliasing
// contract for DAPPER-H: two live trackers of one shape never share a
// table, and a tracker built after one was released takes its tables
// back cleared, with no count, bit-vector or epoch of the old one.
func TestDapperHReleasedTablesComeBackClear(t *testing.T) {
	cfg := testConfig()
	cfg.NRH = 8
	a, b := mustDapperH(t, 0, cfg), mustDapperH(t, 0, cfg)
	assertOwnTables(t, a, b)
	hot := locFor(1, 3, 2, 1000)
	for i := 0; i < 100; i++ {
		a.OnActivate(dram.Cycle(i), hot, nil)
		b.OnActivate(dram.Cycle(i), locFor(0, 1, 1, uint32(i)), nil)
	}
	if c1, c2 := b.Counts(locFor(0, 1, 1, 0)); c1+c2 == 0 {
		t.Fatal("b's counters read zero after its activations")
	}
	a.OnActivate(100, hot, nil) // the 100th ACT mitigated: count once more
	if a.Stats().Mitigations == 0 || !dirty(a) {
		t.Fatal("the hammered tracker's tables hold no state to clear")
	}
	was := &a.ranks[1].tab[0]
	a.Release()
	c := mustDapperH(t, 0, cfg)
	if &c.ranks[1].tab[0] != was && &c.ranks[0].tab[0] != was {
		t.Fatal("a tracker built after a Release did not take the released tables")
	}
	assertOwnTables(t, b, c)
	if dirty(c) {
		t.Fatal("a reused table holds the released tracker's state")
	}
}

// dirty reports whether any entry of d's tables is non-zero.
func dirty(d *DapperH) bool {
	for r := range d.ranks {
		for _, e := range d.ranks[r].tab {
			if e != (hEntry{}) {
				return true
			}
		}
	}
	return false
}

// TestDapperHReleaseLeavesTrackerUnusable pins Release's contract,
// modeled on the LLC's: Stats and Name still read, any later OnActivate
// panics, and a second Release returns nothing to the free list, so two
// trackers built afterwards still own their tables.
func TestDapperHReleaseLeavesTrackerUnusable(t *testing.T) {
	cfg := testConfig()
	d := mustDapperH(t, 0, cfg)
	d.OnActivate(0, locFor(0, 0, 0, 7), nil)
	d.Release()
	d.Release()
	if got := d.Stats().Activations; got != 1 || d.Name() != "DAPPER-H" {
		t.Fatalf("after Release: %d activations, name %q", got, d.Name())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("OnActivate after Release did not panic")
			}
		}()
		d.OnActivate(1, locFor(0, 0, 0, 7), nil)
	}()
	assertOwnTables(t, mustDapperH(t, 0, cfg), mustDapperH(t, 0, cfg))
}

func mustDapperH(t *testing.T, channel int, cfg Config) *DapperH {
	t.Helper()
	d, err := NewDapperH(channel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// assertOwnTables fails if any two rank tables of the trackers share
// backing memory.
func assertOwnTables(t *testing.T, ds ...*DapperH) {
	t.Helper()
	seen := map[*hEntry]bool{}
	for _, d := range ds {
		for r := range d.ranks {
			tab := d.ranks[r].tab
			if len(tab) != d.cfg.NumGroups() {
				t.Fatalf("rank %d table has %d entries, want %d", r, len(tab), d.cfg.NumGroups())
			}
			if seen[&tab[0]] {
				t.Fatalf("rank %d table is shared with another live tracker's", r)
			}
			seen[&tab[0]] = true
		}
	}
}

// TestDapperHOnActivateDoesNotAllocate holds OnActivate allocation-free
// on both paths, plain counting and a mitigation that appends the
// shared rows into a buffer with room for them, and on both group-memo
// paths: rows that keep their slots hit, while two rows of one rank
// that share a slot, activated in turn, miss on every call.
func TestDapperHOnActivateDoesNotAllocate(t *testing.T) {
	cfg := testConfig()
	cfg.NRH = 8 // a hammered row mitigates every few ACTs
	geo := cfg.Geometry
	colliding := []dram.Loc{locFor(0, 2, 1, 5)}
	for idx := uint64(0); len(colliding) < 2 && idx < geo.RowsPerRank(); idx++ {
		if l := geo.FromRankRowIndex(0, 0, idx); l != colliding[0] && groupSlot(idx) == groupSlot(geo.RankRowIndex(colliding[0])) {
			colliding = append(colliding, l)
		}
	}
	if len(colliding) < 2 {
		t.Fatal("no two rows of the rank share a group-memo slot")
	}
	for _, tc := range []struct {
		name string
		locs []dram.Loc
	}{
		{"hits", []dram.Loc{locFor(0, 0, 0, 7), locFor(1, 3, 2, 900), locFor(0, 5, 1, 33)}},
		{"misses", colliding},
	} {
		d, err := NewDapperH(0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]rh.Action, 0, groupSize)
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			buf = d.OnActivate(dram.Cycle(i), tc.locs[i%len(tc.locs)], buf[:0])
			i++
		})
		if allocs != 0 {
			t.Fatalf("%s: OnActivate allocates %.1f times per call", tc.name, allocs)
		}
		if m := d.Stats().Mitigations; m < 100 {
			t.Fatalf("%s: only %d mitigations: the mitigating path was not exercised", tc.name, m)
		}
	}
}

// BenchmarkDapperHOnActivate times one ACT (ns/op) on the baseline
// geometry at NRH 500: uniform traffic across both ranks and all banks,
// with every 16th ACT hammering one row, and a clock strided by
// tREFW/65,536 per ACT, so a rekey every ~65,536 ACTs keeps the tables
// from filling up. The hammered row mitigates about 16
// times per window, so both paths are in the mix.
func BenchmarkDapperHOnActivate(b *testing.B) {
	geo := dram.Baseline()
	d, err := NewDapperH(0, Config{Geometry: geo, NRH: 500})
	if err != nil {
		b.Fatal(err)
	}
	locs := make([]dram.Loc, 4096)
	rng := uint64(0x9E3779B97F4A7C15)
	for i := range locs {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		locs[i] = locFor(int(rng%2), int(rng>>8)%geo.BankGroups, int(rng>>16)%geo.BanksPerGroup, uint32(rng>>24)%geo.RowsPerBank)
		if i%16 == 0 {
			locs[i] = locFor(1, 3, 2, 1000)
		}
	}
	buf := make([]rh.Action, 0, groupSize)
	stride := resetWindow >> 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := dram.Cycle(i) * stride
		buf = d.Tick(now, buf[:0])
		buf = d.OnActivate(now, locs[i%len(locs)], buf[:0])
	}
}

// BenchmarkDapperHFollowers times one ACT of one tracker (ns/op) in the
// replay shape of a lockstep NRH sweep: each 4,096-ACT chunk of a
// uniform stream over the baseline geometry is fed follower-major to
// eight trackers, one per NRH from 500 to 64,000, with the clock
// strided as in BenchmarkDapperHOnActivate. The stream is 64 chunks
// long, so a row is not seen again until the group tables have been
// overwritten many times. In "same-keys" the trackers share the default
// seed, as a sweep's do, so the first tracker's group-memo misses are
// the other seven's hits; in "own-keys" each has its own seed and
// table, so every ACT misses.
func BenchmarkDapperHFollowers(b *testing.B) {
	geo := dram.Baseline()
	const chunk = 4096
	locs := make([]dram.Loc, 64*chunk)
	rng := uint64(0xBF58476D1CE4E5B9)
	for i := range locs {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		locs[i] = locFor(int(rng%2), int(rng>>8)%geo.BankGroups, int(rng>>16)%geo.BanksPerGroup, uint32(rng>>24)%geo.RowsPerBank)
	}
	for _, keys := range []string{"same-keys", "own-keys"} {
		b.Run(keys, func(b *testing.B) {
			trackers := make([]*DapperH, 8)
			for f := range trackers {
				cfg := Config{Geometry: geo, NRH: 500 << f}
				if keys == "own-keys" {
					cfg.Seed = uint64(f + 1)
				}
				d, err := NewDapperH(0, cfg)
				if err != nil {
					b.Fatal(err)
				}
				trackers[f] = d
			}
			buf := make([]rh.Action, 0, groupSize)
			stride := resetWindow >> 16
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, f, j := i/(chunk*len(trackers)), i/chunk%len(trackers), i%chunk
				act := c*chunk + j
				now := dram.Cycle(act) * stride
				buf = trackers[f].Tick(now, buf[:0])
				buf = trackers[f].OnActivate(now, locs[act%len(locs)], buf[:0])
			}
		})
	}
}
