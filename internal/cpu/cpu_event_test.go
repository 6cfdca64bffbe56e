package cpu

import (
	"testing"

	"dapper/internal/dram"
	"dapper/internal/mem"
)

// evScriptTrace yields a fixed cyclic pattern of records.
type evScriptTrace struct {
	recs []Record
	i    int
}

func (s *evScriptTrace) Next() Record {
	r := s.recs[s.i%len(s.recs)]
	s.i++
	return r
}

// latencyMemory models a hierarchy with a fixed synchronous latency for
// even lines and an in-flight request (completing after missLat) for odd
// lines, with periodic backpressure windows.
type latencyMemory struct {
	hitLat, missLat  dram.Cycle
	busyFrom, busyTo dram.Cycle
	inflight         []*mem.Request
}

func (m *latencyMemory) Access(now dram.Cycle, _ int, req *mem.Request) (dram.Cycle, *mem.Request, bool) {
	if now >= m.busyFrom && now < m.busyTo {
		return 0, nil, false // backpressure window
	}
	line := StripNC(req.Addr) / 64
	if line%2 == 0 {
		return m.hitLat, nil, true
	}
	req.Done = true
	req.DoneAt = now + m.missLat
	m.inflight = append(m.inflight, req)
	return 0, req, true
}

// TestStepGapReplayMatchesDense drives one core every cycle and a clone
// only at its NextEvent wake times; retired counts must agree at every
// observation point. This is the core-side contract the event engine's
// time skipping rests on.
func TestStepGapReplayMatchesDense(t *testing.T) {
	recs := []Record{
		{Bubbles: 23, Addr: 0},
		{Bubbles: 2, Addr: 64},
		{Bubbles: 120, Addr: 128},
		{Bubbles: 0, Addr: 192},
		{Bubbles: 7, Addr: 320},
	}
	end := dram.Cycle(30000)
	checkpoints := map[dram.Cycle]bool{1000: true, 7777: true, 15000: true, end - 1: true}

	run := func(sparse bool) map[dram.Cycle]uint64 {
		memIf := &latencyMemory{hitLat: 40, missLat: 150, busyFrom: 5000, busyTo: 5060}
		c := New(0, &evScriptTrace{recs: append([]Record(nil), recs...)}, memIf)
		seen := make(map[dram.Cycle]uint64)
		wake := dram.Cycle(0)
		for now := dram.Cycle(0); now < end; now++ {
			if sparse && now < wake && !c.Stalled() && !checkpoints[now] {
				continue
			}
			c.Step(now)
			wake = c.NextEvent(now)
			if wake == dram.Never {
				// Externally blocked: in this harness completions are
				// pre-assigned, so re-polling next cycle is enough.
				wake = now + 1
			}
			if checkpoints[now] {
				seen[now] = c.Retired()
			}
		}
		return seen
	}

	dense := run(false)
	sparse := run(true)
	for at, want := range dense {
		if got := sparse[at]; got != want {
			t.Fatalf("retired at cycle %d: dense %d, sparse %d", at, want, got)
		}
	}
}

// TestNextEventBubbleHorizon checks the horizon arithmetic: a core that
// just dispatched with B bubbles left cannot issue its next memory
// access before now + ceil((B+1)/Width).
func TestNextEventBubbleHorizon(t *testing.T) {
	memIf := &latencyMemory{hitLat: 4, missLat: 50}
	c := New(0, &evScriptTrace{recs: []Record{{Bubbles: 41, Addr: 0}}}, memIf)
	c.Step(0) // dispatches 4 of the 41 bubbles
	got := c.NextEvent(0)
	want := dram.Cycle(0) + (dram.Cycle(37)+4)/4
	if got != want {
		t.Fatalf("horizon = %d, want %d", got, want)
	}
}

// TestNextEventBlockedOnPendingHead reports the ROB head's completion
// time when the ROB is full of in-flight reads, and Never while the
// head's request has no completion time yet. The first NextEvent after
// the controller sets Done must answer DoneAt: a Never wake is never
// served from the cache.
func TestNextEventBlockedOnPendingHead(t *testing.T) {
	memIf := &latencyMemory{hitLat: 4, missLat: 600}
	// Odd lines go in flight; no bubbles, so the ROB fills with pending
	// entries and the core blocks.
	c := New(0, &evScriptTrace{recs: []Record{{Bubbles: 0, Addr: 64}}}, memIf)
	var wake dram.Cycle
	for now := dram.Cycle(0); now < 200; now++ {
		c.Step(now)
		wake = c.NextEvent(now)
	}
	// Head completes at its pre-assigned DoneAt; the wake must be that
	// completion time, never Never-forever.
	if wake == dram.Never || wake <= 199 {
		t.Fatalf("blocked core wake = %d", wake)
	}
	// Take the completion times away, as if the controller had not yet
	// started the requests: the core can only wait on memory.
	for _, r := range memIf.inflight {
		r.Done = false
	}
	c.Step(200)
	if wake = c.NextEvent(200); wake != dram.Never {
		t.Fatalf("wake with the head not started = %d, want Never", wake)
	}
	head := memIf.inflight[0]
	head.Done, head.DoneAt = true, 650
	if wake = c.NextEvent(201); wake != 650 {
		t.Fatalf("first wake after the head's Done = %d, want its DoneAt 650", wake)
	}
}
