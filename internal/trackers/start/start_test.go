package start

import (
	"testing"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

func newTest() *Tracker {
	g := dram.Baseline()
	g.RowsPerBank = 2048
	// A 64 KiB LLC: a small counter cache so tests can overflow it
	// quickly.
	return New(0, g, 500, 64*1024)
}

func loc(rank, bg, bank int, row uint32) dram.Loc {
	return dram.Loc{Rank: rank, BankGroup: bg, Bank: bank, Row: row}
}

func TestReservesHalfLLC(t *testing.T) {
	tr := newTest()
	if tr.LLCReservedFraction() != 0.5 {
		t.Fatalf("reserved = %v", tr.LLCReservedFraction())
	}
	var _ rh.LLCReserver = tr
}

func TestFirstAccessFetchesCounterLine(t *testing.T) {
	tr := newTest()
	acts := tr.OnActivate(0, loc(0, 0, 0, 0), nil)
	if len(acts) != 1 || acts[0].Kind != rh.InjectRead {
		t.Fatalf("expected one counter fetch, got %v", acts)
	}
}

func TestCachedCounterLineNoTraffic(t *testing.T) {
	tr := newTest()
	tr.OnActivate(0, loc(0, 0, 0, 0), nil)
	// Rows 0..31 share a counter line.
	acts := tr.OnActivate(1, loc(0, 0, 0, 1), nil)
	if len(acts) != 0 {
		t.Fatalf("adjacent row refetched the line: %v", acts)
	}
}

func TestStreamingThrashesCounterCache(t *testing.T) {
	// Stream far more counter lines than the reserved region holds:
	// every new line fetches, dirty evictions write back.
	tr := newTest()
	reads, writes := 0, 0
	for row := uint32(0); row < 2048; row++ {
		for bank := 0; bank < 32; bank++ {
			acts := tr.OnActivate(0, loc(0, bank/4, bank%4, row), nil)
			for _, a := range acts {
				switch a.Kind {
				case rh.InjectRead:
					reads++
				case rh.InjectWrite:
					writes++
				}
			}
		}
	}
	if reads < 200 {
		t.Fatalf("streaming produced only %d fetches", reads)
	}
	if writes == 0 {
		t.Fatal("no dirty write-backs under thrash")
	}
}

func TestMitigationAtNM(t *testing.T) {
	tr := newTest()
	l := loc(0, 1, 1, 77)
	var refreshes int
	for i := 0; i < 260; i++ {
		acts := tr.OnActivate(dram.Cycle(i), l, nil)
		for _, a := range acts {
			if a.Kind == rh.RefreshVictims {
				refreshes++
				if a.Loc.Row != 77 {
					t.Fatalf("refreshed row %d", a.Loc.Row)
				}
			}
		}
	}
	if refreshes != 1 {
		t.Fatalf("refreshes = %d, want 1 (at NM=250)", refreshes)
	}
}

func TestSecurityBound(t *testing.T) {
	tr := newTest()
	l := loc(1, 0, 3, 1000)
	since := 0
	for i := 0; i < 2000; i++ {
		acts := tr.OnActivate(dram.Cycle(i), l, nil)
		since++
		for _, a := range acts {
			if a.Kind == rh.RefreshVictims {
				since = 0
			}
		}
		if since >= 500 {
			t.Fatalf("row survived %d activations", since)
		}
	}
}

// TestResetClears pins the reset period at tREFW: a tick one cycle
// short keeps the counters, the tick at tREFW clears them.
func TestResetClears(t *testing.T) {
	tr := newTest()
	l := loc(0, 0, 0, 5)
	for i := 0; i < 100; i++ {
		tr.OnActivate(dram.Cycle(i), l, nil)
	}
	idx := tr.geo.RankRowIndex(l)
	w := dram.DDR5().TREFW
	tr.Tick(w-1, nil)
	if got, _ := tr.counts.Get(idx); got != 100 {
		t.Fatalf("tick before tREFW left count %d, want 100", got)
	}
	tr.Tick(w, nil)
	if got, _ := tr.counts.Get(idx); got != 0 {
		t.Fatalf("tick at tREFW left count %d, want 0", got)
	}
	// After reset the same row needs NM more ACTs to mitigate.
	mitigations := tr.Stats().Mitigations
	for i := 0; i < 200; i++ {
		tr.OnActivate(w+dram.Cycle(i), l, nil)
	}
	if tr.Stats().Mitigations != mitigations {
		t.Fatal("counter survived the reset")
	}
}

func TestDistinctRanksDistinctCounters(t *testing.T) {
	tr := newTest()
	for i := 0; i < 200; i++ {
		tr.OnActivate(dram.Cycle(i), loc(0, 0, 0, 9), nil)
	}
	// Same row index in the other rank: fresh counter, no mitigation.
	before := tr.Stats().Mitigations
	for i := 0; i < 100; i++ {
		tr.OnActivate(dram.Cycle(i), loc(1, 0, 0, 9), nil)
	}
	if tr.Stats().Mitigations != before {
		t.Fatal("rank counters aliased")
	}
}

func TestName(t *testing.T) {
	if newTest().Name() != "START" {
		t.Fatal("name")
	}
}

var _ rh.Tracker = (*Tracker)(nil)
