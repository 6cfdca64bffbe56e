package attack

import (
	"testing"

	"dapper/internal/core"
	"dapper/internal/cpu"
	"dapper/internal/dram"
)

func geo() dram.Geometry {
	g := dram.Baseline()
	g.RowsPerBank = 2048
	return g
}

func TestForTrackerMapping(t *testing.T) {
	cases := map[string]Kind{
		"Hydra":    HydraConflict,
		"START":    StreamingSweep,
		"CoMeT":    RATThrash,
		"ABACUS":   DistinctRows,
		"DAPPER-S": Refresh,
		"DAPPER-H": Refresh,
		"none":     CacheThrash,
	}
	for name, want := range cases {
		if got := ForTracker(name); got != want {
			t.Fatalf("ForTracker(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range []Kind{None, CacheThrash, HydraConflict, StreamingSweep, RATThrash, DistinctRows, Refresh, Hammer} {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

func TestNewTraceUnknownKind(t *testing.T) {
	if _, err := NewTrace(Config{Geometry: geo(), Kind: Kind(99)}); err == nil {
		t.Fatal("expected error")
	}
}

func TestIdleTraceNeverTouchesMemory(t *testing.T) {
	tr := MustTrace(Config{Geometry: geo(), Kind: None})
	rec := tr.Next()
	if rec.Bubbles < 1000 {
		t.Fatal("idle trace should be compute-only")
	}
}

func TestCacheThrashIsCacheable(t *testing.T) {
	tr := MustTrace(Config{Geometry: geo(), Kind: CacheThrash})
	for i := 0; i < 100; i++ {
		rec := tr.Next()
		if rec.NonCacheable {
			t.Fatal("thrash must be cacheable to pollute the LLC")
		}
		if rec.Bubbles != 0 {
			t.Fatal("thrash must be memory-bound")
		}
	}
}

func TestCacheThrashStreams(t *testing.T) {
	tr := MustTrace(Config{Geometry: geo(), Kind: CacheThrash})
	a := tr.Next().Addr
	b := tr.Next().Addr
	if b != a+64 {
		t.Fatalf("thrash not sequential: %x -> %x", a, b)
	}
}

func TestSweepCoversBanksAndRows(t *testing.T) {
	g := geo()
	tr := MustTrace(Config{Geometry: g, Kind: StreamingSweep})
	banks := map[int]bool{}
	rows := map[uint32]bool{}
	total := g.Channels * g.Ranks * g.BankGroups * g.BanksPerGroup
	for i := 0; i < total*4; i++ {
		rec := tr.Next()
		if !rec.NonCacheable {
			t.Fatal("sweep must bypass the LLC")
		}
		l := g.Decompose(cpu.StripNC(rec.Addr))
		banks[l.Channel<<8|g.FlatBank(l)] = true
		rows[l.Row] = true
	}
	if len(banks) != total {
		t.Fatalf("sweep touched %d banks, want %d", len(banks), total)
	}
	// Bank-major: after `total` steps the row advances.
	if len(rows) != 4 {
		t.Fatalf("sweep advanced through %d rows in 4 rounds", len(rows))
	}
}

func TestDistinctRowsNeverRepeatsConsecutively(t *testing.T) {
	g := geo()
	tr := MustTrace(Config{Geometry: g, Kind: DistinctRows})
	last := uint32(0xFFFFFFFF)
	for i := 0; i < 1000; i++ {
		l := g.Decompose(cpu.StripNC(tr.Next().Addr))
		if l.Row == last {
			t.Fatal("consecutive ACTs share a row ID")
		}
		last = l.Row
	}
}

func TestRefreshHammersAPairPerBank(t *testing.T) {
	g := geo()
	tr := MustTrace(Config{Geometry: g, Kind: Refresh})
	rows := map[uint32]bool{}
	banks := map[int]bool{}
	total := g.Channels * g.Ranks * g.BankGroups * g.BanksPerGroup
	for i := 0; i < total*4; i++ {
		l := g.Decompose(cpu.StripNC(tr.Next().Addr))
		rows[l.Row] = true
		banks[l.Channel<<8|g.FlatBank(l)] = true
	}
	// Two alternating rows per bank (open-page hammer pair).
	if len(rows) != 2 {
		t.Fatalf("refresh attack used %d distinct rows, want the pair", len(rows))
	}
	if len(banks) < 64 {
		t.Fatalf("refresh attack hit only %d banks", len(banks))
	}
	// Consecutive visits to the same bank must alternate rows.
	a := g.Decompose(cpu.StripNC(tr.Next().Addr))
	for i := 0; i < total-1; i++ {
		tr.Next()
	}
	b := g.Decompose(cpu.StripNC(tr.Next().Addr))
	if a.Row == b.Row {
		t.Fatal("same bank revisited with the same row (would row-hit)")
	}
}

func TestRATThrashCycles192RowsPerChannel(t *testing.T) {
	g := geo() // 2 channels
	tr := MustTrace(Config{Geometry: g, Kind: RATThrash})
	perChannel := map[int]map[uint64]bool{}
	for i := 0; i < 192*g.Channels*3; i++ {
		l := g.Decompose(cpu.StripNC(tr.Next().Addr))
		if perChannel[l.Channel] == nil {
			perChannel[l.Channel] = map[uint64]bool{}
		}
		perChannel[l.Channel][uint64(g.FlatBank(l))<<32|uint64(l.Row)] = true
	}
	// The RAT is per-channel (128 entries); the attack must present
	// ~1.5x its capacity of distinct aggressors to EACH channel.
	for ch, rows := range perChannel {
		if len(rows) != 192 {
			t.Fatalf("channel %d sees %d aggressor rows, want 192", ch, len(rows))
		}
	}
}

func TestHydraConflictPhases(t *testing.T) {
	g := geo()
	tr := MustTrace(Config{Geometry: g, Kind: HydraConflict})
	p, _ := PointFor(HydraConflict, g, 0)
	warm := p.WarmAccesses
	if warm == 0 {
		t.Fatal("no warmup phase")
	}
	// During warmup, only group-leader rows (multiples of 128) appear.
	for i := uint64(0); i < warm; i++ {
		l := g.Decompose(cpu.StripNC(tr.Next().Addr))
		if l.Row%128 != 0 {
			t.Fatalf("warmup touched non-leader row %d", l.Row)
		}
	}
	// Steady phase cycles all rows of the groups.
	rows := map[uint32]bool{}
	for i := 0; i < 3*128*64*2; i++ {
		l := g.Decompose(cpu.StripNC(tr.Next().Addr))
		rows[l.Row] = true
	}
	if len(rows) != 3*128 {
		t.Fatalf("steady phase used %d distinct row indices, want %d", len(rows), 3*128)
	}
}

func TestMappingCaptureSAgainstStaticMapping(t *testing.T) {
	// With no rekeying, the probe attack must eventually capture a
	// mapping pair (Table II's premise).
	g := geo()
	cfg := core.Config{Geometry: g, NRH: 500, Seed: 9}
	d, err := core.NewDapperS(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := MappingCaptureS(d, g, 5_000_000)
	if !res.Captured {
		t.Fatal("static mapping never captured")
	}
	// Verify the captured pair really shares a group.
	if d.GroupOf(res.TargetLoc) != d.GroupOf(res.PartnerLoc) {
		t.Fatal("captured pair does not share a group")
	}
}

func TestMappingCaptureHRarelySucceeds(t *testing.T) {
	// DAPPER-H: with N=256 groups (test geometry) the per-trial odds
	// are (2/256)^2 ~ 6e-5 (Equation 6); the deterministic seed below
	// burns hundreds of trials without a capture. (The paper's 8K
	// groups push the odds to ~6e-8 per trial: 99.99% prevention per
	// tREFW.)
	g := geo()
	cfg := core.Config{Geometry: g, NRH: 500, Seed: 9}
	d, err := core.NewDapperH(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := MappingCaptureH(d, g, 123, 200_000)
	if res.Captured {
		t.Fatalf("captured after %d trials; expected failure within budget", res.Trials)
	}
	if res.Trials < 100 {
		t.Fatalf("only %d trials ran; protocol not cycling", res.Trials)
	}
}

func TestMappingCaptureSFasterThanH(t *testing.T) {
	// The headline security claim: single hashing is capturable quickly,
	// double hashing is not — under identical budgets.
	g := geo()
	ds, _ := core.NewDapperS(0, core.Config{Geometry: g, NRH: 500, Seed: 5})
	dh, _ := core.NewDapperH(0, core.Config{Geometry: g, NRH: 500, Seed: 5})
	sRes := MappingCaptureS(ds, g, 2_000_000)
	hRes := MappingCaptureH(dh, g, 77, 2_000_000)
	if !sRes.Captured {
		t.Fatal("DAPPER-S not captured within budget")
	}
	if hRes.Captured {
		t.Fatal("DAPPER-H captured within the same budget (seed-dependent but expected to hold)")
	}
}
