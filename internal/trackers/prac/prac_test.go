package prac

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

func TestActTaxExposed(t *testing.T) {
	tr := newTest()
	if tr.ActTax() != dram.NS(14) {
		t.Fatalf("tax = %d", tr.ActTax())
	}
	var _ rh.TimingTaxer = tr
}

func TestExactCounting(t *testing.T) {
	tr := newTest()
	l := loc(0, 0, 0, 42)
	for i := 0; i < 100; i++ {
		tr.OnActivate(dram.Cycle(i), l, nil)
	}
	if got := tr.RowCount(l); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
}

func TestABOMitigationAtThreshold(t *testing.T) {
	tr := newTest() // ABO at 375
	l := loc(0, 0, 0, 42)
	var acts []rh.Action
	for i := 0; i < 375; i++ {
		acts = tr.OnActivate(dram.Cycle(i), l, nil)
	}
	if len(acts) != 1 || acts[0].Kind != rh.RefreshVictims {
		t.Fatalf("expected ABO mitigation at 375, got %v", acts)
	}
	if tr.Alerts() != 1 {
		t.Fatal("alert not counted")
	}
	if tr.RowCount(l) != 0 {
		t.Fatal("counter not reset after ABO")
	}
}

func TestSecurityBoundIsExact(t *testing.T) {
	tr := newTest()
	l := loc(1, 3, 2, 9)
	since := 0
	for i := 0; i < 3000; i++ {
		acts := tr.OnActivate(dram.Cycle(i), l, nil)
		since++
		if len(acts) > 0 {
			since = 0
		}
		if since >= 500 {
			t.Fatalf("row survived %d activations", since)
		}
	}
}

func TestNoFalseMitigations(t *testing.T) {
	// Exact counters: distinct rows never trigger anything until each
	// individually crosses the threshold.
	tr := newTest()
	for i := 0; i < 100000; i++ {
		l := loc(0, i%8, (i/8)%4, uint32(i%2048))
		if acts := tr.OnActivate(dram.Cycle(i), l, nil); len(acts) != 0 {
			t.Fatalf("false mitigation at %d", i)
		}
	}
	if tr.Stats().Mitigations != 0 {
		t.Fatal("false mitigations counted")
	}
}

func TestPerBankIsolation(t *testing.T) {
	tr := newTest()
	a := loc(0, 0, 0, 7)
	b := loc(0, 0, 1, 7) // same row index, different bank
	for i := 0; i < 50; i++ {
		tr.OnActivate(dram.Cycle(i), a, nil)
	}
	if tr.RowCount(b) != 0 {
		t.Fatal("banks share counters")
	}
}

// TestWindowReset pins the reset period at tREFW: a tick one cycle
// short keeps the counters, the tick at tREFW clears them.
func TestWindowReset(t *testing.T) {
	tr := newTest()
	l := loc(0, 0, 0, 3)
	for i := 0; i < 200; i++ {
		tr.OnActivate(dram.Cycle(i), l, nil)
	}
	w := dram.DDR5().TREFW
	tr.Tick(w-1, nil)
	if got := tr.RowCount(l); got != 200 {
		t.Fatalf("tick before tREFW left count %d, want 200", got)
	}
	tr.Tick(w, nil)
	if tr.RowCount(l) != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestName(t *testing.T) {
	if newTest().Name() != "PRAC" {
		t.Fatal("name")
	}
}

var _ rh.Tracker = (*Tracker)(nil)
