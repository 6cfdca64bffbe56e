package telemetry

import (
	"reflect"
	"testing"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

func segs(l *bankLedger) []blameSeg { return l.segs }

// TestBankLedgerClaimComplement pins the first-claimer-wins semantics:
// a later claim overlapping earlier segments keeps only its uncovered
// cycles, so decompositions over the ledger never double-charge.
func TestBankLedgerClaimComplement(t *testing.T) {
	var l bankLedger
	l.claim(10, 20, causeServeDemand, 0)
	l.claim(30, 40, causeMitigation, 1)
	// Overlaps both existing segments and the gaps around them: only
	// [5,10), [20,30) and [40,45) are still unclaimed.
	l.claim(5, 45, causeREF, -1)
	want := []blameSeg{
		{from: 5, to: 10, culprit: -1, cause: causeREF},
		{from: 10, to: 20, culprit: 0, cause: causeServeDemand},
		{from: 20, to: 30, culprit: -1, cause: causeREF},
		{from: 30, to: 40, culprit: 1, cause: causeMitigation},
		{from: 40, to: 45, culprit: -1, cause: causeREF},
	}
	if !reflect.DeepEqual(segs(&l), want) {
		t.Fatalf("ledger after overlapping claim:\n got  %+v\n want %+v", segs(&l), want)
	}
	// Fully covered claim adds nothing.
	l.claim(12, 38, causeBulk, 2)
	if !reflect.DeepEqual(segs(&l), want) {
		t.Fatalf("fully-covered claim mutated the ledger: %+v", segs(&l))
	}
	// Fast path: append at or after the last end.
	l.claim(45, 50, causeServeInject, -2)
	if got := segs(&l)[len(segs(&l))-1]; got != (blameSeg{from: 45, to: 50, culprit: -2, cause: causeServeInject}) {
		t.Fatalf("append fast path: %+v", got)
	}
}

// TestBankLedgerFutureDatedBlock covers the insertion path that exists
// because mitigation blocks can be future-dated (start = the bank's
// ReadyAt): a REF landing before an already-claimed future block must
// slot in ahead of it, keeping the ledger sorted.
func TestBankLedgerFutureDatedBlock(t *testing.T) {
	var l bankLedger
	l.claim(100, 150, causeMitigation, 3) // future-dated mitigation
	l.claim(20, 60, causeREF, -1)         // lands before it
	want := []blameSeg{
		{from: 20, to: 60, culprit: -1, cause: causeREF},
		{from: 100, to: 150, culprit: 3, cause: causeMitigation},
	}
	if !reflect.DeepEqual(segs(&l), want) {
		t.Fatalf("out-of-order claim:\n got  %+v\n want %+v", segs(&l), want)
	}
}

// TestBankLedgerPrune checks the watermark: segments ending at or
// before the floor vanish, segments straddling it survive whole.
func TestBankLedgerPrune(t *testing.T) {
	var l bankLedger
	l.claim(0, 10, causeServeDemand, 0)
	l.claim(10, 20, causeREF, -1)
	l.claim(30, 50, causeMitigation, 1)
	l.prune(25)
	want := []blameSeg{{from: 30, to: 50, culprit: 1, cause: causeMitigation}}
	if !reflect.DeepEqual(segs(&l), want) {
		t.Fatalf("prune(25):\n got  %+v\n want %+v", segs(&l), want)
	}
	l.prune(40) // straddling segment survives whole
	if !reflect.DeepEqual(segs(&l), want) {
		t.Fatalf("prune(40) dropped a straddling segment: %+v", segs(&l))
	}
}

// newTestRecorder builds a 2-core, 1-channel, 1-bank recorder.
func newTestRecorder(t *testing.T, window, end dram.Cycle) *Recorder {
	t.Helper()
	r, err := NewRecorder(Config{
		Cores: 2, Channels: 1, BanksPerChannel: 1, Window: window, End: end, Attribution: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestBlameRecorderDecomposition drives a hand-built event sequence and
// checks the exact bucket split: queue time behind another core's
// serve, behind a mitigation block, a throttle-gated gap, a sched gap,
// conflict extra charged to the opener, and the intrinsic floor.
func TestBlameRecorderDecomposition(t *testing.T) {
	r := newTestRecorder(t, 0, 1000)
	p := r.Sink(0)
	// Core 1's serve occupies [0,30) and opens the row (it activated:
	// Extra > 0); a VRR triggered by core 1 blocks [30,50); core 0's
	// request, enqueued at 0, waits through both, a throttle window to
	// 60, a sched gap to 70, then pays a conflict (opener = core 1) and
	// serves.
	p.Event(rh.Event{Kind: rh.EvServe, Bank: 0, Core: 1, Enqueued: 0, At: 0, Until: 30, Extra: 12})
	p.Event(rh.Event{Kind: rh.EvBlock, Bank: 0, At: 30, Until: 50, Cause: rh.BlockMitigation, Core: 1})
	p.Event(rh.Event{
		Kind: rh.EvServe, Bank: 0, Core: 0, Enqueued: 0, At: 70, Until: 100,
		Extra: 12, Conflict: true, ThrottleFree: 60, MinEnqueued: 70,
	})
	_, a := finish(t, r)
	m := a.Cores[0].Mem
	want := MemBlame{
		QueueDemand: 30, // behind core 1's serve
		Mitigation:  20, // behind the VRR block
		Throttle:    10, // [50,60)
		Sched:       10, // [60,70)
		Conflict:    12, // the extra, opener = core 1
		Intrinsic:   18, // [82,100)
		Total:       100,
	}
	if m != want {
		t.Fatalf("decomposition:\n got  %+v\n want %+v", m, want)
	}
	// Matrix: core 0 blames core 1 for the serve (30), the VRR block
	// (20) and the conflict extra (12); throttle/sched/REF never enter
	// the matrix.
	if got := a.Matrix[0][1]; got != 62 {
		t.Fatalf("matrix[0][1] = %d, want 62", got)
	}
	if got := a.Matrix[0][0]; got != 0 {
		t.Fatalf("matrix[0][0] = %d, want 0", got)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBlameRecorderInjectBlame checks both injected-traffic paths:
// queue time behind an injected serve and conflict extra whose opener
// was injected both land in Inject, and neither enters the matrix.
func TestBlameRecorderInjectBlame(t *testing.T) {
	r := newTestRecorder(t, 0, 1000)
	p := r.Sink(0)
	// The injected serve activates (Extra > 0), so it opens the row
	// core 0 then conflicts with.
	p.Event(rh.Event{Kind: rh.EvServe, Bank: 0, Core: -1, Injected: true, Enqueued: 0, At: 0, Until: 25, Extra: 15})
	p.Event(rh.Event{
		Kind: rh.EvServe, Bank: 0, Core: 0, Enqueued: 0, At: 25, Until: 60,
		Extra: 15, Conflict: true, MinEnqueued: 25,
	})
	_, a := finish(t, r)
	m := a.Cores[0].Mem
	if m.Inject != 25+15 {
		t.Fatalf("Inject = %d, want 40", m.Inject)
	}
	if m.Intrinsic != 20 || m.Total != 60 {
		t.Fatalf("Intrinsic/Total = %d/%d, want 20/60", m.Intrinsic, m.Total)
	}
	for v := range a.Matrix {
		for c, cell := range a.Matrix[v] {
			if cell != 0 {
				t.Fatalf("matrix[%d][%d] = %d, want 0 (injected culprits never enter)", v, c, cell)
			}
		}
	}
}

// TestBlameRecorderWindowFold checks the windowed fold: intervals split
// exactly at window boundaries, and window sums equal the grand totals.
func TestBlameRecorderWindowFold(t *testing.T) {
	r := newTestRecorder(t, 100, 300)
	p := r.Sink(0)
	// Core 0 queues behind core 1's serve spanning two windows, then
	// serves across the second boundary.
	p.Event(rh.Event{Kind: rh.EvServe, Bank: 0, Core: 1, Enqueued: 50, At: 50, Until: 150, MinEnqueued: 50})
	p.Event(rh.Event{Kind: rh.EvServe, Bank: 0, Core: 0, Enqueued: 50, At: 150, Until: 250, MinEnqueued: 150})
	s, a := finish(t, r)
	ws := s.Blame
	m := a.Cores[0].Mem
	if m.QueueDemand != 100 || m.Intrinsic != 100 || m.Total != 200 {
		t.Fatalf("totals: %+v", m)
	}
	// Queue [50,150) splits 50/50; intrinsic [150,250) splits 50/50
	// into windows 1 and 2.
	q, in := ws[0].QueueDemand, ws[0].Intrinsic
	if q[0] != 50 || q[1] != 50 || q[2] != 0 {
		t.Fatalf("queue windows: %v", q)
	}
	if in[0] != 0 || in[1] != 50 || in[2] != 50 {
		t.Fatalf("intrinsic windows: %v", in)
	}
}

// TestBlameRecorderEndLump checks the cutoff rule: cycles past the run
// end lump into the final window — including intervals lying entirely
// past it — and window sums still equal the grand totals exactly.
func TestBlameRecorderEndLump(t *testing.T) {
	r := newTestRecorder(t, 100, 200)
	p := r.Sink(0)
	// Serve straddling the end: intrinsic [150,260) has 50 in-window
	// cycles and 60 past the cutoff.
	p.Event(rh.Event{Kind: rh.EvServe, Bank: 0, Core: 0, Enqueued: 150, At: 150, Until: 260, MinEnqueued: 150})
	// A second read whose whole service lies past the end.
	p.Event(rh.Event{Kind: rh.EvServe, Bank: 0, Core: 0, Enqueued: 260, At: 260, Until: 300, MinEnqueued: 260})
	s, a := finish(t, r)
	ws := s.Blame
	m := a.Cores[0].Mem
	if m.Intrinsic != 110+40 || m.Total != 150 {
		t.Fatalf("totals: %+v", m)
	}
	in := ws[0].Intrinsic
	if in[0] != 0 || in[1] != 150 {
		t.Fatalf("end-lump windows: %v (want [0 150])", in)
	}
	if sumU(in) != m.Intrinsic {
		t.Fatalf("window sum %d != total %d", sumU(in), m.Intrinsic)
	}
}

// TestBlameRecorderFinishTwicePanics pins the single-shot contract.
func TestBlameRecorderFinishTwicePanics(t *testing.T) {
	r := newTestRecorder(t, 0, 100)
	finish(t, r)
	defer func() {
		if recover() == nil {
			t.Fatal("second Finish did not panic")
		}
	}()
	r.Finish(nil)
}
