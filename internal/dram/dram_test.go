package dram

import (
	"testing"
	"testing/quick"
)

func TestBaselineGeometry(t *testing.T) {
	g := Baseline()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.BanksPerRank() != 32 {
		t.Fatalf("banks per rank = %d, want 32", g.BanksPerRank())
	}
	if g.BanksPerChannel() != 64 {
		t.Fatalf("banks per channel = %d, want 64", g.BanksPerChannel())
	}
	// Paper: 2M rows per rank is the randomized space.
	if g.RowsPerRank() != 2*1024*1024 {
		t.Fatalf("rows per rank = %d, want 2M", g.RowsPerRank())
	}
	// Paper: 64GB total.
	if g.TotalBytes() != 64*1024*1024*1024 {
		t.Fatalf("total = %d, want 64GB", g.TotalBytes())
	}
	if g.BlocksPerRow() != 128 {
		t.Fatalf("blocks per row = %d, want 128", g.BlocksPerRow())
	}
}

func TestScaledGeometry(t *testing.T) {
	g := Scaled(8192)
	if g.RowsPerBank != 8192 {
		t.Fatalf("rows per bank = %d", g.RowsPerBank)
	}
	if g.RowsPerRank() != 8192*32 {
		t.Fatalf("rows per rank = %d", g.RowsPerRank())
	}
}

func TestValidateRejectsBadGeometry(t *testing.T) {
	g := Baseline()
	g.Channels = 0
	if g.Validate() == nil {
		t.Fatal("expected error for 0 channels")
	}
	g = Baseline()
	g.RowBytes = 100 // not a multiple of line size
	if g.Validate() == nil {
		t.Fatal("expected error for misaligned row size")
	}
}

func TestComposeDecomposeRoundTripProperty(t *testing.T) {
	g := Baseline()
	f := func(raw uint64) bool {
		addr := (raw % g.TotalBytes()) &^ uint64(g.LineBytes-1)
		l := g.Decompose(addr)
		return g.Compose(l) == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeComposeRoundTripProperty(t *testing.T) {
	g := Baseline()
	f := func(ch, rank, bg, bank uint8, row uint32, col uint16) bool {
		l := Loc{
			Channel:   int(ch) % g.Channels,
			Rank:      int(rank) % g.Ranks,
			BankGroup: int(bg) % g.BankGroups,
			Bank:      int(bank) % g.BanksPerGroup,
			Row:       row % g.RowsPerBank,
			Col:       int(col) % g.BlocksPerRow(),
		}
		return g.Decompose(g.Compose(l)) == l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialLinesShareRow(t *testing.T) {
	g := Baseline()
	// Consecutive lines in one channel should walk the same row.
	base := g.Compose(Loc{Row: 5})
	l0 := g.Decompose(base)
	l1 := g.Decompose(base + uint64(g.LineBytes*g.Channels))
	if l0.Row != l1.Row || l0.Bank != l1.Bank || l0.Channel != l1.Channel {
		t.Fatalf("sequential lines split rows: %+v vs %+v", l0, l1)
	}
	if l1.Col != l0.Col+1 {
		t.Fatalf("col did not advance: %d -> %d", l0.Col, l1.Col)
	}
}

func TestRankRowIndexRoundTrip(t *testing.T) {
	g := Baseline()
	for _, l := range []Loc{
		{Channel: 1, Rank: 1, BankGroup: 3, Bank: 2, Row: 1000},
		{Channel: 0, Rank: 0, BankGroup: 0, Bank: 0, Row: 0},
		{Channel: 0, Rank: 1, BankGroup: 7, Bank: 3, Row: 65535},
	} {
		idx := g.RankRowIndex(l)
		if idx >= g.RowsPerRank() {
			t.Fatalf("index %d out of rank row space", idx)
		}
		back := g.FromRankRowIndex(l.Channel, l.Rank, idx)
		if back.Row != l.Row || back.BankGroup != l.BankGroup || back.Bank != l.Bank {
			t.Fatalf("round trip %+v -> %d -> %+v", l, idx, back)
		}
	}
}

func TestFlatBank(t *testing.T) {
	g := Baseline()
	seen := make(map[int]bool)
	for r := 0; r < g.Ranks; r++ {
		for bg := 0; bg < g.BankGroups; bg++ {
			for b := 0; b < g.BanksPerGroup; b++ {
				fb := g.FlatBank(Loc{Rank: r, BankGroup: bg, Bank: b})
				if fb < 0 || fb >= g.BanksPerChannel() {
					t.Fatalf("flat bank %d out of range", fb)
				}
				if seen[fb] {
					t.Fatalf("duplicate flat bank %d", fb)
				}
				seen[fb] = true
			}
		}
	}
}

func TestTimingValues(t *testing.T) {
	tm := DDR5()
	if tm.TRC != 192 { // 48ns * 4
		t.Fatalf("tRC = %d cycles, want 192", tm.TRC)
	}
	if tm.TRRDS != 10 { // 2.5ns
		t.Fatalf("tRRD_S = %d cycles, want 10", tm.TRRDS)
	}
	if tm.TREFW != 128_000_000 { // 32ms at 4GHz
		t.Fatalf("tREFW = %d cycles", tm.TREFW)
	}
	if tm.TREFI != 15_600 {
		t.Fatalf("tREFI = %d cycles", tm.TREFI)
	}
	// Paper §VI-G: BR2 doubles VRR blocking.
	if tm.TVRR2 != 2*tm.TVRR1 {
		t.Fatalf("tVRR2 = %d, want 2x tVRR1", tm.TVRR2)
	}
	// DRFMsb (240ns) is longer than RFMsb (190ns), §VI-J.
	if tm.TDRFMsb <= tm.TRFMsb {
		t.Fatal("DRFMsb must cost more than RFMsb")
	}
}

func TestBulkSweepMatchesCoMeTResetCost(t *testing.T) {
	tm := DDR5()
	g := Baseline()
	// Paper §III-B: a full structure-reset refresh takes ~2.4ms.
	sweep := tm.BulkSweep(g.RowsPerBank)
	if sweep < MS(2.0) || sweep > MS(3.0) {
		t.Fatalf("bulk sweep = %.2fms, want ~2.4ms", float64(sweep)/float64(MS(1)))
	}
}

func TestLatencyHelpers(t *testing.T) {
	tm := DDR5()
	if tm.RowHitLatency() != tm.TCL {
		t.Fatal("hit latency")
	}
	if tm.RowMissLatency() != tm.TRP+tm.TRCD+tm.TCL {
		t.Fatal("miss latency")
	}
	if tm.RowClosedLatency() != tm.TRCD+tm.TCL {
		t.Fatal("closed latency")
	}
}

func TestBankBlockClosesRow(t *testing.T) {
	b := NewBank()
	b.OpenRow = 7
	b.Block(1000)
	if b.OpenRow != RowNone {
		t.Fatal("block must close the row buffer")
	}
	if b.AvailableAt(0) != 1000 {
		t.Fatalf("available at %d, want 1000", b.AvailableAt(0))
	}
	// Block never shrinks.
	b.Block(500)
	if b.BlockedUntil != 1000 {
		t.Fatalf("blocked until %d, want 1000", b.BlockedUntil)
	}
}

func TestBankAvailableAt(t *testing.T) {
	b := NewBank()
	b.ReadyAt = 50
	if b.AvailableAt(10) != 50 {
		t.Fatal("ready gating")
	}
	if b.AvailableAt(80) != 80 {
		t.Fatal("now gating")
	}
}

func TestRankBlock(t *testing.T) {
	r := NewRank(100)
	if r.NextRefAt != 100 {
		t.Fatal("first ref")
	}
	r.Block(500)
	r.Block(300)
	if r.BlockedUntil != 500 {
		t.Fatalf("rank blocked until %d", r.BlockedUntil)
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{ACT: 1, RD: 2, WR: 3, REF: 4, VRR: 5, RFMsb: 6, DRFMsb: 7, BulkEvents: 8, BulkRows: 9, InjRD: 10, InjWR: 11}
	b := a
	a.Add(b)
	if a.ACT != 2 || a.RD != 4 || a.InjWR != 22 || a.BulkRows != 18 {
		t.Fatalf("add wrong: %+v", a)
	}
}

func TestNSConversions(t *testing.T) {
	if NS(1) != 4 || US(1) != 4000 || MS(1) != 4_000_000 {
		t.Fatal("time conversions wrong")
	}
}

func TestTimingValidate(t *testing.T) {
	if err := DDR5().Validate(); err != nil {
		t.Fatalf("DDR5 timing must validate: %v", err)
	}
	partial := Timing{TRC: NS(48)} // everything else zero
	if err := partial.Validate(); err == nil {
		t.Fatal("partially-filled Timing must be rejected")
	}
	neg := DDR5()
	neg.TRRDS = -1
	if err := neg.Validate(); err == nil {
		t.Fatal("negative timing field must be rejected")
	}
	var zero Timing
	if err := zero.Validate(); err == nil {
		t.Fatal("zero Timing must be rejected")
	}
}

// TestDecoderDoesNotAllocate covers both decoder paths.
func TestDecoderDoesNotAllocate(t *testing.T) {
	odd := Baseline()
	odd.Channels = 3
	for _, g := range []Geometry{Baseline(), odd} {
		d := g.Decoder()
		addr := uint64(0)
		var sink Loc
		decode := func() {
			sink = d.Decompose(addr)
			sink.Channel += d.Channel(addr)
			addr += 4160
		}
		if a := testing.AllocsPerRun(1000, decode); a != 0 {
			t.Fatalf("%s: decoding allocates %.1f times per call", g, a)
		}
		_ = sink
	}
}
