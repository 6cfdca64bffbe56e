package abacus

import (
	"testing"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

// newTest builds a tracker at the paper's table size for nrh; the
// overflow tests use NRH 4000, the smallest table (309 entries).
func newTest(nrh uint32) *Tracker {
	g := dram.Baseline()
	g.RowsPerBank = 2048
	return New(0, g, nrh)
}

func loc(rank, bg, bank int, row uint32) dram.Loc {
	return dram.Loc{Rank: rank, BankGroup: bg, Bank: bank, Row: row}
}

func TestEntriesForMatchesPaper(t *testing.T) {
	want := map[uint32]int{4000: 309, 2000: 617, 1000: 1233, 500: 2466, 250: 4931, 125: 9783}
	for nrh, n := range want {
		if got := entriesFor(nrh); got != n {
			t.Fatalf("entriesFor(%d) = %d, want %d", nrh, got, n)
		}
		if got := newTest(nrh).mg.K(); got != n {
			t.Fatalf("New at NRH %d sized the table at %d, want %d", nrh, got, n)
		}
	}
}

func TestSameBankHammerMitigates(t *testing.T) {
	tr := newTest(500)
	l := loc(0, 0, 0, 42)
	mitigations := 0
	for i := 0; i < 600; i++ {
		acts := tr.OnActivate(dram.Cycle(i), l, nil)
		for _, a := range acts {
			if a.Kind == rh.RefreshVictims {
				mitigations++
			}
		}
	}
	if mitigations == 0 {
		t.Fatal("hammered row never mitigated")
	}
}

func TestMitigationCoversAllBanks(t *testing.T) {
	// The counter is shared across banks, so a mitigation refreshes the
	// row in every bank of the channel.
	tr := newTest(500)
	l := loc(0, 0, 0, 42)
	var acts []rh.Action
	for i := 0; i < 600 && len(acts) == 0; i++ {
		acts = tr.OnActivate(dram.Cycle(i), l, nil)
	}
	if len(acts) != tr.geo.BanksPerChannel() {
		t.Fatalf("mitigation touched %d banks, want %d", len(acts), tr.geo.BanksPerChannel())
	}
}

func TestBitvectorFiltersCrossBankTouches(t *testing.T) {
	// Touching the same row ID from different banks must not inflate
	// the counter (one touch per bank sets bits only).
	tr := newTest(500)
	for bg := 0; bg < tr.geo.BankGroups; bg++ {
		for b := 0; b < tr.geo.BanksPerGroup; b++ {
			acts := tr.OnActivate(0, loc(0, bg, b, 42), nil)
			if len(acts) != 0 {
				t.Fatal("cross-bank touches caused actions")
			}
		}
	}
	if tr.Stats().Mitigations != 0 {
		t.Fatal("cross-bank touches mitigated")
	}
}

func TestDistinctRowStreamRaisesSpillover(t *testing.T) {
	tr := newTest(500)
	row := uint32(0)
	for i := 0; i < 5000; i++ {
		tr.OnActivate(dram.Cycle(i), loc(0, int(row)%8, 0, row), nil)
		row++
	}
	if tr.Spillover() == 0 {
		t.Fatal("distinct-row stream did not raise spillover")
	}
}

func TestSpilloverOverflowForcesChannelRefresh(t *testing.T) {
	// The Perf-Attack: distinct rows until spillover reaches NM -> bulk
	// channel refresh. With 309 entries and NM 2000, that's ~618K ACTs.
	tr := newTest(4000)
	row := uint32(0)
	sawBulk := false
	for i := 0; i < 309*2000*3 && !sawBulk; i++ {
		acts := tr.OnActivate(dram.Cycle(i), loc(0, int(row)%8, int(row/8)%4, row%2048), nil)
		for _, a := range acts {
			if a.Kind == rh.BulkRefreshChannel {
				sawBulk = true
			}
		}
		row++
	}
	if !sawBulk {
		t.Fatal("spillover overflow never forced a channel refresh")
	}
	if tr.Overflows() == 0 {
		t.Fatal("overflow not counted")
	}
	if tr.Spillover() != 0 {
		t.Fatal("structures not reset after overflow")
	}
}

func TestOverflowPeriodScalesWithEntries(t *testing.T) {
	// Overflow should take roughly Entries x NM activations (paper:
	// N x NRH/2).
	tr := newTest(4000)
	row := uint32(0)
	acts := 0
	for tr.Overflows() == 0 {
		tr.OnActivate(dram.Cycle(acts), loc(0, int(row)%8, int(row/8)%4, row%2048), nil)
		row++
		acts++
		if acts > 309*2000*5 {
			t.Fatal("overflow never happened")
		}
	}
	want := 309 * 2000
	if acts < want/2 || acts > want*3 {
		t.Fatalf("overflow after %d ACTs, want ~%d", acts, want)
	}
}

func TestSecurityBound(t *testing.T) {
	tr := newTest(500)
	l := loc(0, 1, 1, 7)
	since := 0
	for i := 0; i < 2500; i++ {
		acts := tr.OnActivate(dram.Cycle(i), l, nil)
		since++
		for _, a := range acts {
			if (a.Kind == rh.RefreshVictims && a.Loc.Row == l.Row) || a.Kind == rh.BulkRefreshChannel {
				since = 0
			}
		}
		if since > 510 {
			t.Fatalf("row survived %d activations", since)
		}
	}
}

// TestPeriodicReset pins the reset period at tREFW: a tick one cycle
// short keeps the spillover, the tick at tREFW clears it.
func TestPeriodicReset(t *testing.T) {
	tr := newTest(4000)
	for i := 0; i < 400; i++ { // more distinct rows than the 309 entries
		tr.OnActivate(dram.Cycle(i), loc(0, 0, 0, uint32(i)), nil)
	}
	spill := tr.Spillover()
	if spill == 0 {
		t.Fatal("400 distinct rows did not spill")
	}
	w := dram.DDR5().TREFW
	tr.Tick(w-1, nil)
	if tr.Spillover() != spill {
		t.Fatalf("tick before tREFW changed spillover %d -> %d", spill, tr.Spillover())
	}
	tr.Tick(w, nil)
	if tr.Spillover() != 0 {
		t.Fatal("reset did not clear spillover")
	}
}

func TestName(t *testing.T) {
	if newTest(500).Name() != "ABACUS" {
		t.Fatal("name")
	}
}

var _ rh.Tracker = (*Tracker)(nil)
