package hydra

import (
	"testing"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

func testGeo() dram.Geometry {
	g := dram.Baseline()
	g.RowsPerBank = 2048
	return g
}

func newTest() *Tracker { return New(0, testGeo(), 500) }

func loc(rank, bg, bank int, row uint32) dram.Loc {
	return dram.Loc{Rank: rank, BankGroup: bg, Bank: bank, Row: row}
}

func TestThresholds(t *testing.T) {
	tr := newTest()
	if tr.nm != 250 {
		t.Fatalf("NM = %d", tr.nm)
	}
	if tr.ngc != 200 { // 0.8 * 250
		t.Fatalf("NGC = %d", tr.ngc)
	}
}

func TestGroupPhaseNoCounterTraffic(t *testing.T) {
	tr := newTest()
	l := loc(0, 0, 0, 100)
	var acts []rh.Action
	for i := 0; i < 150; i++ { // below NGC=200
		acts = tr.OnActivate(dram.Cycle(i), l, acts)
	}
	if len(acts) != 0 {
		t.Fatalf("group phase generated %d actions", len(acts))
	}
	if tr.GroupCount(l) != 150 {
		t.Fatalf("group count = %d", tr.GroupCount(l))
	}
}

func TestTransitionToPerRowTracking(t *testing.T) {
	tr := newTest()
	l := loc(0, 0, 0, 100)
	for i := 0; i < 200; i++ {
		tr.OnActivate(dram.Cycle(i), l, nil)
	}
	// Rows of the group inherit the group count at transition.
	if got := tr.RowCount(l); got != 200 {
		t.Fatalf("row count after transition = %d, want 200", got)
	}
}

func TestMitigationAtNM(t *testing.T) {
	tr := newTest()
	l := loc(0, 0, 0, 100)
	var mitigated []rh.Action
	for i := 0; i < 260; i++ {
		acts := tr.OnActivate(dram.Cycle(i), l, nil)
		for _, a := range acts {
			if a.Kind == rh.RefreshVictims {
				mitigated = append(mitigated, a)
			}
		}
	}
	if len(mitigated) == 0 {
		t.Fatal("no mitigation after 260 activations (NM=250)")
	}
	if mitigated[0].Loc.Row != 100 {
		t.Fatalf("mitigated row %d", mitigated[0].Loc.Row)
	}
	if tr.Stats().Mitigations == 0 {
		t.Fatal("mitigation not counted")
	}
}

func TestRowHammerSecurityBound(t *testing.T) {
	// A hammered row must be refreshed before NRH activations.
	tr := newTest()
	l := loc(1, 3, 2, 500)
	since := 0
	for i := 0; i < 1500; i++ {
		acts := tr.OnActivate(dram.Cycle(i), l, nil)
		since++
		for _, a := range acts {
			if a.Kind == rh.RefreshVictims && a.Loc.Row == l.Row {
				since = 0
			}
		}
		if since >= 500 {
			t.Fatalf("row survived %d activations", since)
		}
	}
}

func TestRCCMissesInjectCounterTraffic(t *testing.T) {
	// Warm up one group into per-row mode, then touch many distinct
	// per-row-tracked rows to overflow the 4K-entry RCC.
	tr := newTest()
	// Push 40 groups (128 rows each = 5120 rows > 4096 RCC entries)
	// into per-row mode. Groups are consecutive 128-row blocks.
	for g := 0; g < 40; g++ {
		l := loc(0, 0, 0, uint32(g*128))
		for i := 0; i < 200; i++ {
			tr.OnActivate(0, l, nil)
		}
	}
	// Now cycle all 5120 rows repeatedly: capacity misses galore.
	var traffic int
	for pass := 0; pass < 3; pass++ {
		for r := uint32(0); r < 5120; r++ {
			acts := tr.OnActivate(0, loc(0, 0, 0, r), nil)
			for _, a := range acts {
				if a.Kind == rh.InjectRead || a.Kind == rh.InjectWrite {
					traffic++
				}
			}
		}
	}
	if traffic < 5000 {
		t.Fatalf("only %d injected counter ops; RCC thrash should dominate", traffic)
	}
}

func TestRCCHitsNoCounterTraffic(t *testing.T) {
	// A single hot per-row-tracked row stays cached: no traffic.
	tr := newTest()
	l := loc(0, 0, 0, 100)
	for i := 0; i < 200; i++ { // to per-row mode
		tr.OnActivate(0, l, nil)
	}
	before := tr.Stats().InjectedReads
	for i := 0; i < 40; i++ {
		tr.OnActivate(0, l, nil)
	}
	after := tr.Stats().InjectedReads
	if after-before > 1 {
		t.Fatalf("hot row generated %d fetches", after-before)
	}
}

func TestCounterLocInReservedRegion(t *testing.T) {
	g := testGeo()
	tr := New(0, g, 500)
	seen := map[int]bool{}
	for i := uint64(0); i < 64*32; i += 32 {
		l := tr.counterLoc(i)
		if l.Row < g.RowsPerBank-256 {
			t.Fatalf("counter row %d outside reserved top region", l.Row)
		}
		seen[g.FlatBank(l)] = true
	}
	// Counter lines should stripe across many banks.
	if len(seen) < 32 {
		t.Fatalf("counters only touch %d banks", len(seen))
	}
}

// TestResetWindowClears pins the reset period at tREFW: a tick one
// cycle short leaves the counters alone, the tick at tREFW clears them.
func TestResetWindowClears(t *testing.T) {
	tr := newTest()
	l := loc(0, 0, 0, 100)
	for i := 0; i < 220; i++ {
		tr.OnActivate(dram.Cycle(i), l, nil)
	}
	w := dram.DDR5().TREFW
	tr.Tick(w-1, nil)
	if tr.GroupCount(l) != 200 || tr.RowCount(l) != 220 {
		t.Fatalf("tick before tREFW changed counters: group %d, row %d", tr.GroupCount(l), tr.RowCount(l))
	}
	tr.Tick(w, nil)
	if tr.GroupCount(l) != 0 || tr.RowCount(l) != 0 {
		t.Fatal("reset did not clear counters")
	}
}

// TestPartialGroupRank activates every row of ranks whose row count is
// not a multiple of the group size: the last, partial group must get a
// counter, and its transition to per-row tracking must give counters to
// the rank's rows only.
func TestPartialGroupRank(t *testing.T) {
	for _, rowsPerBank := range []uint32{1, 5, 1001} {
		geo := dram.Scaled(rowsPerBank)
		tr := New(0, geo, 10)
		rows := geo.RowsPerRank()
		for r := 0; r < geo.Ranks; r++ {
			for idx := uint64(0); idx < rows; idx++ {
				l := geo.FromRankRowIndex(0, r, idx)
				for i := uint32(0); i < tr.nm; i++ {
					tr.OnActivate(0, l, nil)
				}
			}
		}
		for r := range tr.ranks {
			if n := tr.ranks[r].rct.Len(); uint64(n) != rows {
				t.Errorf("%d rows per bank, rank %d: %d row counters, want %d", rowsPerBank, r, n, rows)
			}
		}
		if got, want := tr.Stats().Mitigations, uint64(geo.Ranks)*rows; got < want {
			t.Errorf("%d rows per bank: %d mitigations, want at least one per row (%d)", rowsPerBank, got, want)
		}
	}
}

func TestName(t *testing.T) {
	if newTest().Name() != "Hydra" {
		t.Fatal("name")
	}
}

var _ rh.Tracker = (*Tracker)(nil)
