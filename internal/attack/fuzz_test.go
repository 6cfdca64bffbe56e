package attack_test

import (
	"testing"

	"dapper/internal/attack"
	"dapper/internal/cpu"
	"dapper/internal/dram"
)

// FuzzParamsTrace fuzzes the parametric attack generator over its whole
// input surface: arbitrary Pattern fields (including hostile values —
// negatives are rejected by Validate, everything finite else is
// clamped), arbitrary geometry row counts, and arbitrary seeds. Two
// invariants must hold for every accepted point:
//
//   - every emitted record stays inside the geometry (address below
//     capacity; non-cacheable hammer addresses decompose/compose
//     round-trip, so every Loc field is in bounds), and
//   - replay is deterministic: an identical (geometry, params, seed)
//     trace emits an identical record stream.
//
// These are the properties the adversary search and the harness cache
// rely on (a trace that wandered out of bounds or replayed differently
// would poison cached results keyed by the canonical param encoding).
func FuzzParamsTrace(f *testing.F) {
	// The named kinds' shapes (streaming, refresh pair, Hydra
	// warm-up) plus a stochastic mixed point and a periodic point.
	f.Add(uint32(64*1024), 4096, 1, uint32(0), uint32(1), uint32(0), 0, 0, 0, 0.0, 1, uint32(7), uint32(996), 0, 0.0, uint64(0), uint64(0), uint64(0), uint64(1))
	f.Add(uint32(2048), 384, 3, uint32(128), uint32(1), uint32(0), 1, 16, 1, 0.0, 1, uint32(0), uint32(0), 0, 0.0, uint64(0), uint64(256), uint64(0), uint64(2))
	f.Add(uint32(1024), 2, 1, uint32(0), uint32(0), uint32(7), 0, 8, 0, 1.0, 2, uint32(7), uint32(996), 0, 0.0, uint64(0), uint64(0), uint64(0), uint64(3))
	f.Add(uint32(64*1024), 64, 2, uint32(64), uint32(2), uint32(100), 4, 32, 2, 0.5, 4, uint32(11), uint32(17), 3, 0.25, uint64(1<<20), uint64(128), uint64(512), uint64(7))
	f.Fuzz(func(t *testing.T,
		rowsPerBank uint32, rows, groups int, groupSpan, rowStride, rowBase uint32,
		hold, banks, ranks int, hotFrac float64, hotRows int, hotBase, hotStride uint32,
		bubbles int, cacheFrac float64, streamBytes, warmAccesses, period, seed uint64) {

		geo := dram.Scaled(1 + rowsPerBank%(64*1024))
		p := attack.Params{
			Steady: attack.Pattern{
				Rows: rows, Groups: groups, GroupSpan: groupSpan,
				RowStride: rowStride, RowBase: rowBase, RowHold: hold,
				Banks: banks, Ranks: ranks,
				HotFrac: hotFrac, HotRows: hotRows, HotBase: hotBase, HotStride: hotStride,
				Bubbles: bubbles, CacheableFrac: cacheFrac, StreamBytes: streamBytes,
			},
			Warm:         attack.Pattern{CacheableFrac: 1, StreamBytes: 64, Bubbles: 4096},
			WarmAccesses: warmAccesses % 4096,
			Period:       period % 8192,
		}
		cfg := attack.Config{Geometry: geo, NRH: 500, Kind: attack.Parametric, Params: p, Seed: seed}
		tr, err := attack.NewTrace(cfg)
		if err != nil {
			// Rejected point (negative fields, non-finite fractions):
			// rejection must be deterministic too.
			if _, err2 := attack.NewTrace(cfg); err2 == nil {
				t.Fatalf("validation flapped: first %v, then nil", err)
			}
			return
		}
		replay, err := attack.NewTrace(cfg)
		if err != nil {
			t.Fatalf("second construction failed: %v", err)
		}
		for i := 0; i < 512; i++ {
			r := tr.Next()
			if r2 := replay.Next(); r != r2 {
				t.Fatalf("record %d not replay-deterministic: %+v vs %+v", i, r, r2)
			}
			if cpu.IsNC(r.Addr) {
				t.Fatalf("record %d: trace pre-tagged a non-cacheable address: %#x", i, r.Addr)
			}
			if r.Addr >= geo.TotalBytes() {
				t.Fatalf("record %d: address %#x beyond capacity %#x", i, r.Addr, geo.TotalBytes())
			}
			if !r.NonCacheable {
				continue
			}
			if r.Addr%uint64(geo.LineBytes) != 0 {
				t.Fatalf("record %d: hammer address %#x not line-aligned", i, r.Addr)
			}
			l := geo.Decompose(r.Addr)
			if got := geo.Compose(l); got != r.Addr {
				t.Fatalf("record %d: address %#x does not round-trip (%#x via %+v)", i, r.Addr, got, l)
			}
			if l.Row >= geo.RowsPerBank {
				t.Fatalf("record %d: row %d out of %d", i, l.Row, geo.RowsPerBank)
			}
		}
	})
}
