package core

import (
	"testing"
	"testing/quick"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

// testGeometry is a small power-of-two geometry: 2 ranks x 32 banks x
// 2048 rows = 64K rows per rank, group size 256 -> 256 groups.
func testGeometry() dram.Geometry {
	g := dram.Baseline()
	g.RowsPerBank = 2048
	return g
}

func testConfig() Config {
	return Config{Geometry: testGeometry(), NRH: 500, Seed: 42}
}

func locFor(rank, bg, bank int, row uint32) dram.Loc {
	return dram.Loc{Rank: rank, BankGroup: bg, Bank: bank, Row: row}
}

// hammer activates loc n times through the tracker, collecting actions.
func hammer(tr rh.Tracker, loc dram.Loc, n int) []rh.Action {
	var out []rh.Action
	for i := 0; i < n; i++ {
		out = tr.OnActivate(dram.Cycle(i), loc, out)
	}
	return out
}

// --- Config ---------------------------------------------------------------

func TestConfigDefaults(t *testing.T) {
	if groupSize != 256 {
		t.Fatalf("group size = %d", groupSize)
	}
	if resetWindow != dram.DDR5().TREFW {
		t.Fatalf("reset window = %d", resetWindow)
	}
	c := Config{Geometry: testGeometry(), NRH: 500}.withDefaults()
	if c.Seed != 0xDA99E4 {
		t.Fatalf("seed = %#x", c.Seed)
	}
	if c.NM() != 250 {
		t.Fatalf("NM = %d", c.NM())
	}
}

func TestConfigNumGroups(t *testing.T) {
	c := testConfig()
	if c.NumGroups() != 256 { // 64K rows / 256
		t.Fatalf("groups = %d", c.NumGroups())
	}
	// Baseline: 2M rows / 256 = 8K groups, 21 address bits.
	b := Config{Geometry: dram.Baseline(), NRH: 500}
	if b.NumGroups() != 8192 {
		t.Fatalf("baseline groups = %d", b.NumGroups())
	}
	if b.AddressBits() != 21 {
		t.Fatalf("address bits = %d", b.AddressBits())
	}
}

func TestConfigStorageMatchesPaper(t *testing.T) {
	// Paper §VI-H: per 32GB channel (2 ranks), DAPPER-H uses 32KB of
	// RGC tables + 64KB of bit-vectors = 96KB.
	b := Config{Geometry: dram.Baseline(), NRH: 500}
	if got := b.StorageBytesH(); got != 96*1024 {
		t.Fatalf("DAPPER-H storage = %dKB, want 96KB", got/1024)
	}
	// DAPPER-S: one table per rank = 16KB per channel.
	if got := b.StorageBytesS(); got != 16*1024 {
		t.Fatalf("DAPPER-S storage = %dKB, want 16KB", got/1024)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := testConfig()
	bad.NRH = 1
	if _, err := NewDapperS(0, bad); err == nil {
		t.Fatal("tiny NRH must fail")
	}
	bad = testConfig()
	bad.Geometry.RowsPerBank = 4 // 128 rows per rank: less than one group
	if _, err := NewDapperS(0, bad); err == nil {
		t.Fatal("a rank smaller than one group must fail")
	}
	bad = testConfig()
	bad.Geometry.RowsPerBank = 1000 // rows per rank not a power of two
	if _, err := NewDapperH(0, bad); err == nil {
		t.Fatal("non-power-of-two row space must fail")
	}
}

// --- DAPPER-S ---------------------------------------------------------------

func TestDapperSNoMitigationBelowThreshold(t *testing.T) {
	d, err := NewDapperS(0, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	acts := hammer(d, locFor(0, 0, 0, 100), int(d.Config().NM())-1)
	if len(acts) != 0 {
		t.Fatalf("mitigated %d actions below NM", len(acts))
	}
	if d.Stats().Mitigations != 0 {
		t.Fatal("mitigation counted below NM")
	}
}

func TestDapperSMitigatesWholeGroupAtNM(t *testing.T) {
	cfg := testConfig()
	d, _ := NewDapperS(0, cfg)
	loc := locFor(0, 0, 0, 100)
	acts := hammer(d, loc, int(cfg.NM()))
	// Paper Figure 6b: all 256 rows of the group are refreshed.
	if len(acts) != 256 {
		t.Fatalf("refreshed %d rows, want 256", len(acts))
	}
	// The hammered row must be among them.
	found := false
	for _, a := range acts {
		if a.Kind != rh.RefreshVictims {
			t.Fatalf("unexpected action kind %d", a.Kind)
		}
		if a.Loc.Row == loc.Row && a.Loc.Bank == loc.Bank && a.Loc.BankGroup == loc.BankGroup && a.Loc.Rank == loc.Rank {
			found = true
		}
	}
	if !found {
		t.Fatal("aggressor row not refreshed with its group")
	}
	if d.GroupCount(loc) != 0 {
		t.Fatal("RGC not reset after mitigation")
	}
	if d.Stats().Mitigations != 1 {
		t.Fatalf("mitigations = %d", d.Stats().Mitigations)
	}
}

func TestDapperSSecurityNoRowExceedsNRH(t *testing.T) {
	// Core security invariant: a row can never be activated NRH times
	// within a reset window without a mitigation touching its group.
	cfg := testConfig()
	d, _ := NewDapperS(0, cfg)
	loc := locFor(1, 2, 3, 77)
	sinceRefresh := 0
	for i := 0; i < int(cfg.NRH)*3; i++ {
		acts := d.OnActivate(dram.Cycle(i), loc, nil)
		sinceRefresh++
		for _, a := range acts {
			if a.Loc == loc || (a.Loc.Row == loc.Row && a.Loc.Bank == loc.Bank &&
				a.Loc.BankGroup == loc.BankGroup && a.Loc.Rank == loc.Rank) {
				sinceRefresh = 0
			}
		}
		if sinceRefresh >= int(cfg.NRH) {
			t.Fatalf("row reached %d activations without mitigation", sinceRefresh)
		}
	}
}

func TestDapperSGroupCounterSharedAcrossRows(t *testing.T) {
	cfg := testConfig()
	d, _ := NewDapperS(0, cfg)
	// Find two rows in the same group by brute force.
	target := d.GroupOf(locFor(0, 0, 0, 0))
	var partner dram.Loc
	found := false
	for row := uint32(1); row < 2048 && !found; row++ {
		for bank := 0; bank < 4 && !found; bank++ {
			l := locFor(0, 0, bank, row)
			if d.GroupOf(l) == target {
				partner = l
				found = true
			}
		}
	}
	if !found {
		t.Skip("no partner row found in scan range")
	}
	hammer(d, locFor(0, 0, 0, 0), 10)
	if got := d.GroupCount(partner); got != 10 {
		t.Fatalf("partner sees count %d, want 10 (shared RGC)", got)
	}
}

// groupsOfS returns the DAPPER-S group ids of 32 rows of one bank.
func groupsOfS(d *DapperS) []uint64 {
	var out []uint64
	for row := uint32(0); row < 32; row++ {
		out = append(out, d.GroupOf(locFor(0, 0, 0, row)))
	}
	return out
}

// TestDapperSResetWindowClearsAndRekeys pins the reset period at tREFW:
// the tick at tREFW clears the table and rekeys the cipher.
func TestDapperSResetWindowClearsAndRekeys(t *testing.T) {
	d, _ := NewDapperS(0, testConfig())
	loc := locFor(0, 0, 0, 5)
	hammer(d, loc, 100)
	before := groupsOfS(d)
	if d.GroupCount(loc) != 100 {
		t.Fatalf("count = %d", d.GroupCount(loc))
	}
	d.Tick(dram.DDR5().TREFW, nil)
	if d.GroupCount(loc) != 0 {
		t.Fatal("reset did not clear counters")
	}
	// Rekey almost surely moves a row to a different group; a single
	// row might coincidentally stay, so check a handful.
	same := 0
	for i, g := range groupsOfS(d) {
		if g == before[i] {
			same++
		}
	}
	if same > 28 {
		t.Fatalf("rekey at tREFW left %d/32 mappings unchanged", same)
	}
}

// TestDapperSTickBeforeWindowNoop: a tick one cycle short of tREFW
// neither clears the table nor rekeys.
func TestDapperSTickBeforeWindowNoop(t *testing.T) {
	d, _ := NewDapperS(0, testConfig())
	loc := locFor(0, 0, 0, 5)
	hammer(d, loc, 50)
	before := groupsOfS(d)
	d.Tick(dram.DDR5().TREFW-1, nil)
	if d.GroupCount(loc) != 50 {
		t.Fatal("early tick reset the table")
	}
	for i, g := range groupsOfS(d) {
		if g != before[i] {
			t.Fatalf("early tick rekeyed row %d", i)
		}
	}
}

func TestDapperSDifferentChannelsDifferentMappings(t *testing.T) {
	cfg := testConfig()
	a, _ := NewDapperS(0, cfg)
	b, _ := NewDapperS(1, cfg)
	same := 0
	for row := uint32(0); row < 64; row++ {
		if a.GroupOf(locFor(0, 0, 0, row)) == b.GroupOf(locFor(0, 0, 0, row)) {
			same++
		}
	}
	if same > 32 {
		t.Fatalf("channels share %d/64 mappings", same)
	}
}

// --- DAPPER-H ---------------------------------------------------------------

func TestDapperHSameBankHammerTriggersAtNM(t *testing.T) {
	cfg := testConfig()
	d, err := NewDapperH(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	loc := locFor(0, 0, 0, 100)
	// Same-bank hammering: first ACT sets the bit (only RGC2 counts),
	// every later ACT increments both. RGC1 reaches NM after NM+1 ACTs.
	acts := hammer(d, loc, int(cfg.NM())+1)
	if len(acts) == 0 {
		t.Fatal("no mitigation after NM+1 same-bank activations")
	}
	if d.Stats().Mitigations != 1 {
		t.Fatalf("mitigations = %d", d.Stats().Mitigations)
	}
}

func TestDapperHMitigatesOnlySharedRows(t *testing.T) {
	cfg := testConfig()
	d, _ := NewDapperH(0, cfg)
	loc := locFor(0, 1, 2, 555)
	acts := hammer(d, loc, int(cfg.NM())+1)
	// §VI-D footnote 5: almost always exactly one shared row — and it
	// must be the aggressor.
	if len(acts) == 0 || len(acts) > 4 {
		t.Fatalf("refreshed %d rows; DAPPER-H must be selective", len(acts))
	}
	foundSelf := false
	for _, a := range acts {
		if a.Loc.Row == loc.Row && a.Loc.BankGroup == loc.BankGroup && a.Loc.Bank == loc.Bank {
			foundSelf = true
		}
	}
	if !foundSelf {
		t.Fatal("aggressor not refreshed")
	}
	if f := d.SingleSharedFraction(); f != 1.0 && len(acts) == 1 {
		t.Fatalf("single-shared fraction = %f", f)
	}
}

func TestDapperHCountersResetAfterMitigation(t *testing.T) {
	cfg := testConfig()
	d, _ := NewDapperH(0, cfg)
	loc := locFor(0, 1, 2, 555)
	hammer(d, loc, int(cfg.NM())+1)
	c1, c2 := d.Counts(loc)
	if c1 >= cfg.NM() && c2 >= cfg.NM() {
		t.Fatalf("counters (%d, %d) not reset after mitigation", c1, c2)
	}
}

func TestDapperHBitvectorFiltersFirstTouchPerBank(t *testing.T) {
	cfg := testConfig()
	d, _ := NewDapperH(0, cfg)
	loc := locFor(0, 0, 0, 10)
	d.OnActivate(0, loc, nil)
	c1, c2 := d.Counts(loc)
	if c1 != 0 {
		t.Fatalf("RGC1 = %d after first touch; bit-vector must filter", c1)
	}
	if c2 != 1 {
		t.Fatalf("RGC2 = %d after first touch, want 1", c2)
	}
	// Second touch from the same bank increments both.
	d.OnActivate(1, loc, nil)
	c1, c2 = d.Counts(loc)
	if c1 != 1 || c2 != 2 {
		t.Fatalf("counts after second touch = (%d, %d), want (1, 2)", c1, c2)
	}
}

func TestDapperHBitvectorClearsOtherBanksOnIncrement(t *testing.T) {
	cfg := testConfig()
	d, _ := NewDapperH(0, cfg)
	loc := locFor(0, 0, 0, 10)
	g1, _ := d.GroupsOf(loc)

	// Touch the group from a different bank via some row that maps to
	// g1 — easiest is the same row twice (sets then increments), then
	// inspect the bit-vector directly.
	d.OnActivate(0, loc, nil) // sets bit for bank 0
	bv := d.BitvecEntry(0, g1)
	if bv == 0 {
		t.Fatal("bit not set on first touch")
	}
	d.OnActivate(1, loc, nil) // increments, clears others, keeps own bit
	bv = d.BitvecEntry(0, g1)
	bank := uint(cfg.Geometry.BankInRank(loc))
	if bv != 1<<bank {
		t.Fatalf("bit-vector = %x after increment, want only bank bit %d", bv, bank)
	}
}

func TestDapperHStreamingDoesNotInflateRGC1(t *testing.T) {
	// Sweep many distinct rows across different banks once each: RGC1
	// should stay near zero (every touch is a first touch from some
	// bank), which is exactly the streaming-attack defense (§VI-D).
	cfg := testConfig()
	d, _ := NewDapperH(0, cfg)
	i := 0
	for bg := 0; bg < cfg.Geometry.BankGroups; bg++ {
		for bank := 0; bank < cfg.Geometry.BanksPerGroup; bank++ {
			for row := uint32(0); row < 64; row++ {
				d.OnActivate(dram.Cycle(i), locFor(0, bg, bank, row), nil)
				i++
			}
		}
	}
	if d.Stats().Mitigations != 0 {
		t.Fatalf("streaming sweep triggered %d mitigations", d.Stats().Mitigations)
	}
}

func TestDapperHSecurityNoRowExceedsNRHSameBank(t *testing.T) {
	cfg := testConfig()
	d, _ := NewDapperH(0, cfg)
	loc := locFor(1, 3, 1, 999)
	sinceRefresh := 0
	for i := 0; i < int(cfg.NRH)*4; i++ {
		acts := d.OnActivate(dram.Cycle(i), loc, nil)
		sinceRefresh++
		for _, a := range acts {
			if a.Loc.Row == loc.Row && a.Loc.BankGroup == loc.BankGroup &&
				a.Loc.Bank == loc.Bank && a.Loc.Rank == loc.Rank {
				sinceRefresh = 0
			}
		}
		if sinceRefresh > int(cfg.NRH) {
			t.Fatalf("row survived %d activations without refresh", sinceRefresh)
		}
	}
	if d.Stats().Mitigations == 0 {
		t.Fatal("sustained hammering never mitigated")
	}
}

func TestDapperHResetCountersPreserveSurvivors(t *testing.T) {
	// Hammer row A to NM-1 in both tables, then push row B (sharing
	// neither group... but B's mitigation must not erase A's progress
	// beyond what its reset-counter rule allows). We verify the
	// documented rule: after B's mitigation, A's effective count is
	// still >= its true count bound, i.e. A still triggers within NRH.
	cfg := testConfig()
	d, _ := NewDapperH(0, cfg)
	a := locFor(0, 0, 0, 1)
	b := locFor(0, 2, 2, 1700)
	hammer(d, a, 200)
	hammer(d, b, int(cfg.NM())+1) // B mitigates
	// Continue hammering A: it must mitigate within NRH total ACTs.
	acts := hammer(d, a, 200)
	if len(acts) == 0 {
		t.Fatal("row A never mitigated despite 400 activations")
	}
}

// TestDapperHWindowResetClearsEverything pins the reset period at
// tREFW: a tick one cycle short keeps both counters, the tick at tREFW
// clears them.
func TestDapperHWindowResetClearsEverything(t *testing.T) {
	d, _ := NewDapperH(0, testConfig())
	loc := locFor(0, 0, 0, 42)
	hammer(d, loc, 100)
	w := dram.DDR5().TREFW
	d.Tick(w-1, nil)
	if c1, c2 := d.Counts(loc); c1 != 99 || c2 != 100 {
		t.Fatalf("counts after a tick before tREFW = (%d, %d), want (99, 100)", c1, c2)
	}
	d.Tick(w, nil)
	c1, c2 := d.Counts(loc)
	if c1 != 0 || c2 != 0 {
		t.Fatalf("counts after window reset = (%d, %d)", c1, c2)
	}
}

// TestDapperHRekeyChangesGroups: both ciphers keep their keys through
// a tick one cycle short of tREFW and rekey at tREFW.
func TestDapperHRekeyChangesGroups(t *testing.T) {
	d, _ := NewDapperH(0, testConfig())
	changed := 0
	var before [][2]uint64
	for row := uint32(0); row < 32; row++ {
		g1, g2 := d.GroupsOf(locFor(0, 0, 0, row))
		before = append(before, [2]uint64{g1, g2})
	}
	w := dram.DDR5().TREFW
	d.Tick(w-1, nil)
	for row := uint32(0); row < 32; row++ {
		if g1, g2 := d.GroupsOf(locFor(0, 0, 0, row)); g1 != before[row][0] || g2 != before[row][1] {
			t.Fatalf("tick before tREFW rekeyed row %d", row)
		}
	}
	d.Tick(w, nil)
	for row := uint32(0); row < 32; row++ {
		g1, g2 := d.GroupsOf(locFor(0, 0, 0, row))
		if g1 != before[row][0] || g2 != before[row][1] {
			changed++
		}
	}
	if changed < 16 {
		t.Fatalf("only %d/32 mappings changed after rekey", changed)
	}
}

func TestDapperHTwoTablesDisagree(t *testing.T) {
	// The two hashes must produce different groupings (double-hash
	// independence).
	cfg := testConfig()
	d, _ := NewDapperH(0, cfg)
	same := 0
	for row := uint32(0); row < 128; row++ {
		g1, g2 := d.GroupsOf(locFor(0, 0, 0, row))
		if g1 == g2 {
			same++
		}
	}
	if same > 16 {
		t.Fatalf("tables agree on %d/128 rows", same)
	}
}

func TestDapperHDRFMsbModeEmitsDRFMActions(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = rh.DRFMsb
	d, _ := NewDapperH(0, cfg)
	acts := hammer(d, locFor(0, 0, 0, 9), int(cfg.NM())+1)
	if len(acts) == 0 {
		t.Fatal("no mitigation")
	}
	for _, a := range acts {
		if a.Kind != rh.RefreshVictimsDRFMsb {
			t.Fatalf("kind = %d, want DRFMsb", a.Kind)
		}
	}
}

func TestDapperHRejectsTooManyBanks(t *testing.T) {
	// The bit-vector has one bit per bank in 32 bits: 32 banks per rank
	// fit, 33 and up are refused. Every row space here is a power of
	// two that Validate accepts, so a refusal comes from the bank count.
	for _, tc := range []struct {
		groups, perGroup int
		rows             uint32
		ok               bool
	}{
		{8, 4, 2048, true},  // 32 banks: the baseline
		{8, 8, 1024, false}, // 64 banks
		{32, 4, 512, false}, // 128 banks
	} {
		cfg := testConfig()
		cfg.Geometry.BankGroups = tc.groups
		cfg.Geometry.BanksPerGroup = tc.perGroup
		cfg.Geometry.RowsPerBank = tc.rows
		banks := tc.groups * tc.perGroup
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%d banks per rank: Validate: %v", banks, err)
		}
		if _, err := NewDapperH(0, cfg); (err == nil) != tc.ok {
			t.Errorf("%d banks per rank: NewDapperH err = %v, want ok = %v", banks, err, tc.ok)
		}
		if err := cfg.ValidateH(); (err == nil) != tc.ok {
			t.Errorf("%d banks per rank: ValidateH = %v, want ok = %v", banks, err, tc.ok)
		}
	}
}

func TestDapperHRejectsTooManyGroups(t *testing.T) {
	// The partner-group memo stores group ids in 16 bits: 65,536 groups
	// (16M rows) per rank fit, 131,072 are refused.
	for _, tc := range []struct {
		rows uint32
		ok   bool
	}{{1 << 19, true}, {1 << 20, false}} {
		cfg := testConfig()
		cfg.Geometry.RowsPerBank = tc.rows
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%d rows per bank: Validate: %v", tc.rows, err)
		}
		if err := cfg.ValidateH(); (err == nil) != tc.ok {
			t.Errorf("%d groups per rank: ValidateH = %v, want ok = %v", cfg.NumGroups(), err, tc.ok)
		}
	}
}

func TestDapperCountersBoundNRH(t *testing.T) {
	// Both trackers count in 16 bits, so NM = NRH/2 may be at most
	// 65535: NRH 131070 is accepted, NRH 131072 refused.
	for _, tc := range []struct {
		nrh uint32
		ok  bool
	}{{131070, true}, {131071, true}, {131072, false}} {
		cfg := testConfig()
		cfg.NRH = tc.nrh
		if _, err := NewDapperS(0, cfg); (err == nil) != tc.ok {
			t.Errorf("DAPPER-S at NRH %d: err = %v, want ok = %v", tc.nrh, err, tc.ok)
		}
		if _, err := NewDapperH(0, cfg); (err == nil) != tc.ok {
			t.Errorf("DAPPER-H at NRH %d: err = %v, want ok = %v", tc.nrh, err, tc.ok)
		}
	}
}

// Property: for random activation sequences, DAPPER-H never lets any
// single (bank,row) accumulate more than NRH same-bank activations
// without a refresh of that row.
func TestDapperHBoundedExposureProperty(t *testing.T) {
	cfg := testConfig()
	cfg.NRH = 64 // small threshold to exercise mitigation often
	f := func(seed uint64) bool {
		d, err := NewDapperH(0, cfg)
		if err != nil {
			return false
		}
		rng := seed | 1
		exposure := map[dram.Loc]int{}
		for i := 0; i < 4000; i++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			loc := locFor(0, int(rng>>8)%8, int(rng>>16)%4, uint32(rng>>24)%16)
			loc.Row += 100 // stay away from bank edges
			acts := d.OnActivate(dram.Cycle(i), loc, nil)
			exposure[loc]++
			for _, a := range acts {
				key := dram.Loc{Rank: a.Loc.Rank, BankGroup: a.Loc.BankGroup, Bank: a.Loc.Bank, Row: a.Loc.Row}
				delete(exposure, key)
			}
			if exposure[loc] > int(cfg.NRH) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

var (
	_ rh.Tracker = (*DapperS)(nil)
	_ rh.Tracker = (*DapperH)(nil)
)
