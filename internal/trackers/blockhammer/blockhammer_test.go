package blockhammer

import (
	"testing"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

func newTest(nrh uint32) *Tracker {
	g := dram.Baseline()
	g.RowsPerBank = 2048
	return New(0, g, nrh)
}

func loc(rank, bg, bank int, row uint32) dram.Loc {
	return dram.Loc{Rank: rank, BankGroup: bg, Bank: bank, Row: row}
}

func TestThresholdAndDelay(t *testing.T) {
	tr := newTest(500)
	if tr.nbl != 250 {
		t.Fatalf("NBL = %d", tr.nbl)
	}
	// Delay = 2*tREFW/NRH = 2*32ms/500 = 128us.
	if tr.delay != dram.US(128) {
		t.Fatalf("delay = %d cycles", tr.delay)
	}
}

func TestColdRowNotThrottled(t *testing.T) {
	tr := newTest(500)
	l := loc(0, 0, 0, 5)
	if got := tr.NextAllowed(100, l); got != 100 {
		t.Fatalf("cold row delayed to %d", got)
	}
}

func TestHammeredRowGetsBlacklistedAndPaced(t *testing.T) {
	tr := newTest(500)
	l := loc(0, 0, 0, 5)
	for i := 0; i < 260; i++ {
		tr.OnActivate(dram.Cycle(i), l, nil)
	}
	if !tr.Blacklisted(l) {
		t.Fatal("row not blacklisted after 260 ACTs (NBL=250)")
	}
	next := tr.NextAllowed(300, l)
	if next <= 300 {
		t.Fatalf("blacklisted row allowed immediately (next=%d)", next)
	}
	// Pacing enforces the full delay from the last ACT.
	if next < 259+tr.delay {
		t.Fatalf("delay too short: %d", next)
	}
}

func TestThrottlingBoundsActivationRate(t *testing.T) {
	// Simulate the controller honoring NextAllowed: the row must not
	// exceed NRH activations within the window.
	tr := newTest(500)
	l := loc(0, 0, 0, 9)
	now := dram.Cycle(0)
	acts := 0
	for now < dram.DDR5().TREFW {
		allowed := tr.NextAllowed(now, l)
		if allowed > now {
			now = allowed
			continue
		}
		tr.OnActivate(now, l, nil)
		acts++
		now += dram.NS(48) // tRC-limited hammering
	}
	if acts >= 500+10 {
		t.Fatalf("throttled row achieved %d ACTs in one window (NRH=500)", acts)
	}
}

func TestNeverIssuesRefreshes(t *testing.T) {
	tr := newTest(500)
	l := loc(0, 0, 0, 5)
	for i := 0; i < 1000; i++ {
		if acts := tr.OnActivate(dram.Cycle(i), l, nil); len(acts) != 0 {
			t.Fatal("BlockHammer must not refresh")
		}
	}
}

func TestFalsePositivesUnderManyRows(t *testing.T) {
	// Load the per-bank filter with many distinct rows: estimates for
	// untouched rows should start crossing NBL at low thresholds — the
	// false-positive mechanism behind BlockHammer's benign overhead.
	tr := newTest(125) // NBL = 62
	for pass := 0; pass < 80; pass++ {
		for r := uint32(0); r < 512; r++ {
			tr.OnActivate(dram.Cycle(pass*512+int(r)), loc(0, 0, 0, r), nil)
		}
	}
	fp := 0
	for r := uint32(10000); r < 10200; r++ {
		if tr.Blacklisted(loc(0, 0, 0, r%2048+0)) {
			fp++
		}
	}
	if fp == 0 {
		t.Fatal("expected false-positive blacklisting at NRH=125")
	}
}

// TestEpochRotationClearsOldCounts pins the epoch at tREFW/2: a tick
// one cycle short keeps the counts, each tick at an epoch end rotates.
func TestEpochRotationClearsOldCounts(t *testing.T) {
	tr := newTest(500)
	l := loc(0, 0, 0, 7)
	for i := 0; i < 300; i++ {
		tr.OnActivate(dram.Cycle(i), l, nil)
	}
	epoch := dram.DDR5().TREFW / 2
	tr.Tick(epoch-1, nil)
	if got := tr.estimate(0, l.Row); got != 300 || !tr.Blacklisted(l) {
		t.Fatalf("estimate %d before the first rotation, want 300 and blacklisted", got)
	}
	tr.Tick(epoch, nil) // rotate: counts move to history (halved)
	if got := tr.estimate(0, l.Row); got != 150 {
		t.Fatalf("estimate %d after one rotation, want 150", got)
	}
	tr.Tick(2*epoch-1, nil)
	if got := tr.estimate(0, l.Row); got != 150 {
		t.Fatalf("estimate %d before the second rotation, want 150", got)
	}
	tr.Tick(2*epoch, nil) // rotate again: counts gone
	if got := tr.estimate(0, l.Row); got != 0 || tr.Blacklisted(l) {
		t.Fatalf("estimate %d after two epoch rotations, want 0", got)
	}
}

func TestThrottledStatCounts(t *testing.T) {
	tr := newTest(500)
	l := loc(0, 0, 0, 5)
	for i := 0; i < 300; i++ {
		tr.OnActivate(dram.Cycle(i), l, nil)
	}
	if tr.Stats().Throttled == 0 {
		t.Fatal("throttle stat never counted")
	}
}

func TestName(t *testing.T) {
	if newTest(500).Name() != "BlockHammer" {
		t.Fatal("name")
	}
}

var (
	_ rh.Tracker   = (*Tracker)(nil)
	_ rh.Throttler = (*Tracker)(nil)
)
