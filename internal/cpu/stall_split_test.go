package cpu

import (
	"testing"

	"dapper/internal/dram"
	"dapper/internal/telemetry"
)

// splitProbe mirrors the telemetry recorder's stall-split accounting:
// every CoreSegment contributes (to-from) - dispCycles stall cycles to
// the bucket its bp flag selects.
type splitProbe struct {
	rob, bp, retired uint64
}

func (p *splitProbe) CoreSegment(from, to dram.Cycle, retired uint64, dispCycles dram.Cycle, bp bool) {
	stalls := uint64(to-from) - uint64(dispCycles)
	if bp {
		p.bp += stalls
	} else {
		p.rob += stalls
	}
	p.retired += retired
}

// TestStallSplitGapReplayMatchesDense is the fold-boundary regression
// for the ROB-full vs backpressure-retry split: a core driven only at
// its NextEvent wake times (forcing catchUp's closed-form folds,
// including head-stalled stretches inside a backpressure window) must
// report exactly the same CPI stack — and emit exactly the same
// probe totals — as the same core stepped every cycle. The memory
// model's busy window [5000,5060) freezes a stalledReq across a fold
// boundary, the case where a single misclassified fold would silently
// swap backpressure cycles into the ROB bucket.
func TestStallSplitGapReplayMatchesDense(t *testing.T) {
	recs := []Record{
		{Bubbles: 23, Addr: 0},
		{Bubbles: 2, Addr: 64},
		{Bubbles: 120, Addr: 128},
		{Bubbles: 0, Addr: 192},
		{Bubbles: 7, Addr: 320},
	}
	end := dram.Cycle(30000)

	type snap struct {
		cpi     telemetry.CPIStack
		retired uint64
		probe   splitProbe
	}
	run := func(sparse bool) snap {
		memIf := &latencyMemory{hitLat: 40, missLat: 150, busyFrom: 5000, busyTo: 5060}
		c := New(0, &evScriptTrace{recs: append([]Record(nil), recs...)}, memIf)
		var p splitProbe
		c.SetProbe(&p)
		wake := dram.Cycle(0)
		for now := dram.Cycle(0); now < end; now++ {
			if sparse && now < wake && !c.Stalled() && now != end-1 {
				continue
			}
			c.Step(now)
			wake = c.NextEvent(now)
			if wake == dram.Never {
				wake = now + 1
			}
		}
		return snap{cpi: c.CPI(), retired: c.Retired(), probe: p}
	}

	dense := run(false)
	sparse := run(true)
	if dense != sparse {
		t.Fatalf("stall split diverges across fold boundaries:\n dense  %+v\n sparse %+v", dense, sparse)
	}
	if dense.cpi.StallBP == 0 {
		t.Fatalf("scenario exercised no backpressure stalls — busy window lost its teeth")
	}
	if dense.cpi.StallROB == 0 {
		t.Fatalf("scenario exercised no ROB-full stalls")
	}
	for _, s := range []snap{dense, sparse} {
		if s.probe.rob != s.cpi.StallROB || s.probe.bp != s.cpi.StallBP {
			t.Fatalf("probe split (rob=%d bp=%d) != CPI split (rob=%d bp=%d)",
				s.probe.rob, s.probe.bp, s.cpi.StallROB, s.cpi.StallBP)
		}
		if s.probe.retired != s.retired {
			t.Fatalf("probe retired %d != counter %d", s.probe.retired, s.retired)
		}
	}
}

// TestStallBreakdownSumsToStallCycles pins the CPI stack's partition
// identity, Dispatch + StallROB + StallBP == Cycles, on a run mixing
// compute, ROB-full waits and backpressure.
func TestStallBreakdownSumsToStallCycles(t *testing.T) {
	memIf := &latencyMemory{hitLat: 40, missLat: 150, busyFrom: 300, busyTo: 420}
	c := New(0, &evScriptTrace{recs: []Record{{Bubbles: 3, Addr: 64}, {Bubbles: 0, Addr: 192}}}, memIf)
	for now := dram.Cycle(0); now < 2000; now++ {
		c.Step(now)
	}
	cpi := c.CPI()
	if cpi.Dispatch+cpi.StallROB+cpi.StallBP != cpi.Cycles {
		t.Fatalf("dispatch %d + rob %d + bp %d != cycles %d", cpi.Dispatch, cpi.StallROB, cpi.StallBP, cpi.Cycles)
	}
	if cpi.Cycles != 2000 || cpi.Dispatch == 0 || cpi.StallROB == 0 {
		t.Fatalf("CPI %+v: want 2000 cycles with dispatch and ROB stalls", cpi)
	}
	if cpi.StallBP == 0 {
		t.Fatalf("busy window produced no backpressure stalls")
	}
}
