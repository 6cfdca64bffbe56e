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
// 2 ranks x 8,192 groups x 8 B = 128 KiB per channel. Not parallel: it
// reads the process-wide allocation counter, which also counts whatever
// the runtime or another goroutine allocates during the call. The
// constructor's own bytes are the same on every call, so the test
// takes the least of several calls' deltas.
func TestDapperHTableBytes(t *testing.T) {
	cfg := Config{Geometry: dram.Baseline(), NRH: 500}
	got := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
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
	const slack = 1024
	tables := uint64(8 * cfg.NumGroups() * cfg.Geometry.Ranks)
	if got > tables+slack {
		t.Fatalf("NewDapperH allocated %d B, want at most %d (8 B x %d groups x %d ranks + %d)",
			got, tables+slack, cfg.NumGroups(), cfg.Geometry.Ranks, slack)
	}
}

// TestDapperHOnActivateDoesNotAllocate holds OnActivate allocation-free
// on both paths: plain counting and a mitigation that appends the
// shared rows into a buffer with room for them.
func TestDapperHOnActivateDoesNotAllocate(t *testing.T) {
	cfg := testConfig()
	cfg.NRH = 8 // a hammered row mitigates every few ACTs
	d, err := NewDapperH(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]rh.Action, 0, groupSize)
	locs := []dram.Loc{locFor(0, 0, 0, 7), locFor(1, 3, 2, 900), locFor(0, 5, 1, 33)}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		buf = d.OnActivate(dram.Cycle(i), locs[i%len(locs)], buf[:0])
		i++
	})
	if allocs != 0 {
		t.Fatalf("OnActivate allocates %.1f times per call", allocs)
	}
	if m := d.Stats().Mitigations; m < 100 {
		t.Fatalf("only %d mitigations: the mitigating path was not exercised", m)
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
