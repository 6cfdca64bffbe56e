package comet

import (
	"testing"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

func newTest() *Tracker {
	g := dram.Baseline()
	g.RowsPerBank = 2048
	return New(0, g, 500)
}

func loc(rank, bg, bank int, row uint32) dram.Loc {
	return dram.Loc{Rank: rank, BankGroup: bg, Bank: bank, Row: row}
}

func TestThresholds(t *testing.T) {
	tr := newTest()
	if tr.nct != 125 || tr.nm != 250 {
		t.Fatalf("NCT=%d NM=%d", tr.nct, tr.nm)
	}
}

func TestNoMitigationBelowNCT(t *testing.T) {
	tr := newTest()
	l := loc(0, 0, 0, 10)
	for i := 0; i < 124; i++ {
		if acts := tr.OnActivate(dram.Cycle(i), l, nil); len(acts) != 0 {
			t.Fatalf("action %v below NCT", acts)
		}
	}
}

func TestMitigationAtNCTAndRATTakeover(t *testing.T) {
	tr := newTest()
	l := loc(0, 0, 0, 10)
	var first []rh.Action
	for i := 0; i < 125; i++ {
		first = tr.OnActivate(dram.Cycle(i), l, nil)
	}
	if len(first) != 1 || first[0].Kind != rh.RefreshVictims {
		t.Fatalf("expected mitigation at NCT, got %v", first)
	}
	if tr.RATLen() != 1 {
		t.Fatalf("RAT len = %d", tr.RATLen())
	}
	// Now RAT-tracked: next mitigation at NM more activations.
	count := 0
	for i := 0; i < 250; i++ {
		acts := tr.OnActivate(dram.Cycle(i), l, nil)
		count += len(acts)
	}
	if count != 1 {
		t.Fatalf("RAT phase mitigations = %d, want 1", count)
	}
}

func TestSecurityBound(t *testing.T) {
	tr := newTest()
	l := loc(1, 2, 1, 999)
	since := 0
	for i := 0; i < 2000; i++ {
		acts := tr.OnActivate(dram.Cycle(i), l, nil)
		since++
		for _, a := range acts {
			if a.Kind == rh.RefreshVictims || a.Kind == rh.BulkRefreshRank {
				since = 0
			}
		}
		if since >= 500 {
			t.Fatalf("row survived %d activations", since)
		}
	}
}

// TestPeriodicResetIssuesBulkRefresh pins the reset period at tREFW/3:
// nothing fires one cycle short of it, the rank sweeps fire at it.
func TestPeriodicResetIssuesBulkRefresh(t *testing.T) {
	tr := newTest()
	w := dram.DDR5().TREFW / 3
	if acts := tr.Tick(w-1, nil); len(acts) != 0 || tr.PeriodicResets() != 0 {
		t.Fatalf("tick before tREFW/3 reset the tracker: %v", acts)
	}
	acts := tr.Tick(w, nil)
	bulk := 0
	for _, a := range acts {
		if a.Kind == rh.BulkRefreshRank {
			bulk++
		}
	}
	if bulk != tr.geo.Ranks {
		t.Fatalf("bulk refreshes = %d, want %d", bulk, tr.geo.Ranks)
	}
	if tr.PeriodicResets() != 1 {
		t.Fatal("periodic reset not counted")
	}
}

func TestRATThrashTriggersEarlyReset(t *testing.T) {
	// The paper's Perf-Attack: cycle more aggressors than the RAT holds
	// (192 > 128) so the miss-history rate exceeds 25% -> early reset.
	tr := newTest()
	rows := 192
	var sawBulk bool
	for pass := 0; pass < 400 && !sawBulk; pass++ {
		for r := 0; r < rows; r++ {
			l := loc(0, r%8, (r/8)%4, uint32(1000+r))
			acts := tr.OnActivate(dram.Cycle(pass*rows+r), l, nil)
			for _, a := range acts {
				if a.Kind == rh.BulkRefreshRank {
					sawBulk = true
				}
			}
		}
	}
	if !sawBulk {
		t.Fatal("RAT thrash never forced an early reset")
	}
	if tr.EarlyResets() == 0 {
		t.Fatal("early reset not counted")
	}
}

func TestBenignFewAggressorsNoEarlyReset(t *testing.T) {
	// A handful of hot rows (well within RAT capacity) must never force
	// an early reset.
	tr := newTest()
	for i := 0; i < 50000; i++ {
		l := loc(0, 0, 0, uint32(i%16))
		acts := tr.OnActivate(dram.Cycle(i), l, nil)
		for _, a := range acts {
			if a.Kind == rh.BulkRefreshRank {
				t.Fatal("benign pattern forced early reset")
			}
		}
	}
}

func TestResetClearsSketch(t *testing.T) {
	tr := newTest()
	l := loc(0, 0, 0, 10)
	for i := 0; i < 120; i++ {
		tr.OnActivate(dram.Cycle(i), l, nil)
	}
	w := dram.DDR5().TREFW / 3
	tr.Tick(w-1, nil)
	// Before the reset the sketch still holds 120: the 125th ACT mitigates.
	for i := 0; i < 4; i++ {
		tr.OnActivate(w-1, l, nil)
	}
	if acts := tr.OnActivate(w-1, l, nil); len(acts) != 1 {
		t.Fatalf("sketch lost counts before tREFW/3: 125th ACT gave %v", acts)
	}
	tr.Tick(w, nil)
	// After reset the sketch is empty: 124 more ACTs stay silent.
	for i := 0; i < 124; i++ {
		if acts := tr.OnActivate(w+1+dram.Cycle(i), l, nil); len(acts) != 0 {
			t.Fatalf("action after reset at %d: %v", i, acts)
		}
	}
}

func TestName(t *testing.T) {
	if newTest().Name() != "CoMeT" {
		t.Fatal("name")
	}
}

var _ rh.Tracker = (*Tracker)(nil)
