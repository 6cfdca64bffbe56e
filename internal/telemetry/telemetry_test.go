package telemetry

import (
	"encoding/json"
	"testing"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

func mustRecorder(t *testing.T, cfg RecorderConfig) *Recorder {
	t.Helper()
	r, err := NewRecorder(cfg)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	return r
}

func TestRecorderRejectsBadConfig(t *testing.T) {
	cases := []RecorderConfig{
		{Cores: 1, Channels: 1, Window: 0, End: 100},
		{Cores: 1, Channels: 1, Window: -5, End: 100},
		{Cores: 1, Channels: 1, Window: 10, End: 0},
		{Cores: 0, Channels: 1, Window: 10, End: 100},
		{Cores: 1, Channels: 0, Window: 10, End: 100},
		{Cores: 1, Channels: 1, Window: 1, End: dram.Cycle(MaxWindows) + 1},
	}
	for i, cfg := range cases {
		if _, err := NewRecorder(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted, want error", i, cfg)
		}
	}
}

func TestWindowGrid(t *testing.T) {
	// 25 cycles, window 10 → windows of 10, 10, 5.
	r := mustRecorder(t, RecorderConfig{Cores: 1, Channels: 1, Window: 10, End: 25, Warmup: 5})
	s := r.Finish()
	if got := s.NumWindows(); got != 3 {
		t.Fatalf("NumWindows = %d, want 3", got)
	}
	wantLens := []dram.Cycle{10, 10, 5}
	for i, want := range wantLens {
		if got := s.WindowLen(i); got != want {
			t.Errorf("WindowLen(%d) = %d, want %d", i, got, want)
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestCoreSegmentStraddlesWindows(t *testing.T) {
	r := mustRecorder(t, RecorderConfig{Cores: 1, Channels: 1, Window: 10, End: 30})
	// Segment [5, 25): 20 cycles, 40 retired (2/cycle), first 12 cycles
	// dispatch, last 8 stall. Straddles windows 0, 1, 2.
	r.CoreProbe(0).CoreSegment(5, 25, 40, 12, false)
	s := r.Finish()
	c := s.Cores[0]
	// Window 0 holds cycles [5,10): 5 cycles * 2 = 10 retired, 0 stalls.
	// Window 1 holds [10,20): 20 retired; stall span starts at 5+12=17 → 3 stalls.
	// Window 2 holds [20,25): 10 retired, 5 stalls.
	wantRet := []uint64{10, 20, 10}
	wantStl := []uint64{0, 3, 5}
	for w := range wantRet {
		if c.Retired[w] != wantRet[w] || c.Stalls[w] != wantStl[w] {
			t.Errorf("window %d: retired=%d stalls=%d, want %d/%d",
				w, c.Retired[w], c.Stalls[w], wantRet[w], wantStl[w])
		}
	}
	if s.Totals.Retired != 40 || s.Totals.Stalls != 8 {
		t.Errorf("totals retired=%d stalls=%d, want 40/8", s.Totals.Retired, s.Totals.Stalls)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := c.IPC[0]; got != 1.0 {
		t.Errorf("IPC[0] = %v, want 1.0", got)
	}
}

func TestSingleCycleSegmentsMatchFold(t *testing.T) {
	// The same workload emitted as one folded segment vs per-cycle
	// singles must produce identical series — the engine-equivalence
	// property in miniature.
	cfg := RecorderConfig{Cores: 1, Channels: 1, Window: 7, End: 40}
	folded := mustRecorder(t, cfg)
	folded.CoreProbe(0).CoreSegment(3, 33, 90, 18, false)

	single := mustRecorder(t, cfg)
	p := single.CoreProbe(0)
	for t := dram.Cycle(3); t < 33; t++ {
		disp := dram.Cycle(0)
		if t < 3+18 {
			disp = 1
		}
		p.CoreSegment(t, t+1, 3, disp, false)
	}

	a, _ := json.Marshal(folded.Finish())
	b, _ := json.Marshal(single.Finish())
	if string(a) != string(b) {
		t.Fatalf("folded and single-cycle series differ:\n%s\n%s", a, b)
	}
}

func TestObserverEventsAndClamping(t *testing.T) {
	r := mustRecorder(t, RecorderConfig{Cores: 1, Channels: 2, Window: 10, End: 30})
	s0 := r.Sink(0)
	s1 := r.Sink(1)
	s0.Event(rh.Event{Kind: rh.EvACT, At: 0})
	s0.Event(rh.Event{Kind: rh.EvACT, At: 12, Injected: true})
	s0.Event(rh.Event{Kind: rh.EvACT, At: 35}) // past End → final window
	s1.Event(rh.Event{Kind: rh.EvACT, At: -1}) // before 0 → first window
	s0.Event(rh.Event{Kind: rh.EvMitigation, At: 9, Action: rh.RefreshVictims})
	s0.Event(rh.Event{Kind: rh.EvMitigation, At: 19, Action: rh.RefreshVictimsRFMsb})
	s1.Event(rh.Event{Kind: rh.EvMitigation, At: 29, Action: rh.RefreshVictimsDRFMsb})
	s0.Event(rh.Event{Kind: rh.EvRefresh, At: 15})
	s1.Event(rh.Event{Kind: rh.EvBulk, At: 25, Rank: 1})
	// Serve and block events are the blame fold's: they leave the
	// Series untouched.
	s0.Event(rh.Event{Kind: rh.EvServe, At: 3, Until: 9})
	s0.Event(rh.Event{Kind: rh.EvBlock, At: 3, Until: 9})

	s := r.Finish()
	ch0, ch1 := s.Channels[0], s.Channels[1]
	if ch0.DemandACT[0] != 1 || ch0.DemandACT[2] != 1 || ch0.InjACT[1] != 1 {
		t.Errorf("ch0 ACT fold wrong: demand=%v inj=%v", ch0.DemandACT, ch0.InjACT)
	}
	if ch1.DemandACT[0] != 1 {
		t.Errorf("negative timestamp not clamped to window 0: %v", ch1.DemandACT)
	}
	if ch0.VRR[0] != 1 || ch0.RFMsb[1] != 1 || ch1.DRFMsb[2] != 1 {
		t.Errorf("mitigation kinds misfiled: vrr=%v rfmsb=%v drfmsb=%v", ch0.VRR, ch0.RFMsb, ch1.DRFMsb)
	}
	if ch0.REF[1] != 1 || ch1.Bulk[2] != 1 {
		t.Errorf("ref/bulk misfiled: ref=%v bulk=%v", ch0.REF, ch1.Bulk)
	}
	want := Totals{DemandACT: 3, InjACT: 1, VRR: 1, RFMsb: 1, DRFMsb: 1, Bulk: 1, REF: 1}
	if s.Totals != want {
		t.Errorf("totals = %+v, want %+v", s.Totals, want)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestQueueOccupancyIntegration(t *testing.T) {
	r := mustRecorder(t, RecorderConfig{Cores: 1, Channels: 1, Window: 10, End: 30})
	p := r.Sink(0)
	// Level 0 until cycle 5, then 3 demand / 1 injected until 18, then
	// 2/0 until run end.
	p.Event(rh.Event{Kind: rh.EvQueue, At: 5, Demand: 3, InjectedQueue: 1})
	p.Event(rh.Event{Kind: rh.EvQueue, At: 18, Demand: 2})
	s := r.Finish()
	ch := s.Channels[0]
	// Demand: [5,10)*3=15 in w0; [10,18)*3 + [18,20)*2 = 28 in w1; [20,30)*2=20 in w2.
	wantQ := []uint64{15, 28, 20}
	wantI := []uint64{5, 8, 0}
	for w := range wantQ {
		if ch.QueueOccCycles[w] != wantQ[w] || ch.InjQueueOccCycles[w] != wantI[w] {
			t.Errorf("window %d: occ=%d inj=%d, want %d/%d",
				w, ch.QueueOccCycles[w], ch.InjQueueOccCycles[w], wantQ[w], wantI[w])
		}
	}
}

func TestQueueOccupancyClampsBackwardTimestamps(t *testing.T) {
	// Injected counter traffic enqueues with a future apply cycle; a
	// later demand event can then arrive with an earlier timestamp. The
	// integrator must clamp monotonically, not go backward.
	r := mustRecorder(t, RecorderConfig{Cores: 1, Channels: 1, Window: 10, End: 20})
	p := r.Sink(0)
	p.Event(rh.Event{Kind: rh.EvQueue, At: 12, Demand: 4})
	p.Event(rh.Event{Kind: rh.EvQueue, At: 8, Demand: 1}) // timestamp before the integrator head: level applies from 12
	s := r.Finish()
	ch := s.Channels[0]
	// [0,12) level 0, then the clamped sample sets level 1 from 12 on:
	// window 0 integrates nothing, window 1 gets [12,20)*1 = 8.
	if ch.QueueOccCycles[0] != 0 || ch.QueueOccCycles[1] != 8 {
		t.Errorf("occ = %v, want [0 8]", ch.QueueOccCycles)
	}
}

func TestQueueOccupancyPastEndClamped(t *testing.T) {
	r := mustRecorder(t, RecorderConfig{Cores: 1, Channels: 1, Window: 10, End: 20})
	p := r.Sink(0)
	p.Event(rh.Event{Kind: rh.EvQueue, At: 15, Demand: 2})
	p.Event(rh.Event{Kind: rh.EvQueue, At: 99, Demand: 7, InjectedQueue: 7}) // past End: integrates [15,20) at level 2, then nothing
	s := r.Finish()
	ch := s.Channels[0]
	if ch.QueueOccCycles[1] != 10 || ch.QueueOccCycles[0] != 0 {
		t.Errorf("occ = %v, want [0 10]", ch.QueueOccCycles)
	}
	if ch.InjQueueOccCycles[1] != 0 {
		t.Errorf("inj occ = %v, want all zero", ch.InjQueueOccCycles)
	}
}

func TestTableSamplesForwardFill(t *testing.T) {
	r := mustRecorder(t, RecorderConfig{Cores: 1, Channels: 1, Window: 10, End: 50})
	p := r.Sink(0)
	p.Event(rh.Event{Kind: rh.EvTable, At: 12, Table: rh.TableOccupancy{Used: 5, Capacity: 64}})
	p.Event(rh.Event{Kind: rh.EvTable, At: 17, Table: rh.TableOccupancy{Used: 7, Capacity: 64}}) // same window: last sample wins
	p.Event(rh.Event{Kind: rh.EvTable, At: 34, Table: rh.TableOccupancy{Used: 2, Capacity: 64, Resets: 1}})
	s := r.Finish()
	ch := s.Channels[0]
	wantUsed := []int{-1, 7, 7, 2, 2}
	wantRst := []uint64{0, 0, 0, 1, 1}
	for w := range wantUsed {
		if ch.TableUsed[w] != wantUsed[w] || ch.TableResets[w] != wantRst[w] {
			t.Errorf("window %d: used=%d resets=%d, want %d/%d",
				w, ch.TableUsed[w], ch.TableResets[w], wantUsed[w], wantRst[w])
		}
	}
	if ch.TableCap != 64 {
		t.Errorf("TableCap = %d, want 64", ch.TableCap)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestNoTableSamplesOmitsSeries(t *testing.T) {
	r := mustRecorder(t, RecorderConfig{Cores: 1, Channels: 1, Window: 10, End: 20})
	s := r.Finish()
	if s.Channels[0].TableUsed != nil || s.Channels[0].TableResets != nil {
		t.Fatal("table series present without samples")
	}
	raw, _ := json.Marshal(s.Channels[0])
	if string(raw) == "" {
		t.Fatal("marshal failed")
	}
	for _, key := range []string{"table_used", "table_resets", "table_cap"} {
		if contains(string(raw), key) {
			t.Errorf("JSON contains %q for a tracker without a table: %s", key, raw)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestValidateCatchesCorruption(t *testing.T) {
	build := func() *Series {
		r := mustRecorder(t, RecorderConfig{Cores: 1, Channels: 1, Window: 10, End: 30})
		r.Sink(0).Event(rh.Event{Kind: rh.EvACT, At: 5})
		r.CoreProbe(0).CoreSegment(0, 10, 20, 10, false)
		return r.Finish()
	}
	if err := build().Validate(); err != nil {
		t.Fatalf("clean series invalid: %v", err)
	}
	s := build()
	s.Channels[0].DemandACT[0]++ // break conservation
	if err := s.Validate(); err == nil {
		t.Error("dropped-event corruption not caught")
	}
	s = build()
	s.Cores[0].Stalls[1] = 99 // exceeds window length
	if err := s.Validate(); err == nil {
		t.Error("impossible stall count not caught")
	}
	s = build()
	s.Cores[0].Retired = s.Cores[0].Retired[:2] // wrong grid
	if err := s.Validate(); err == nil {
		t.Error("series length mismatch not caught")
	}
}

func TestFinishPanicsTwice(t *testing.T) {
	r := mustRecorder(t, RecorderConfig{Cores: 1, Channels: 1, Window: 10, End: 20})
	r.Finish()
	defer func() {
		if recover() == nil {
			t.Fatal("second Finish did not panic")
		}
	}()
	r.Finish()
}

// TestSinkAndProbeDoNotAllocate holds the channel sink (every event
// kind) and the core probe to zero allocations on a warmed Recorder:
// they run per ACT, per queue change and per dispatch burst. Queue
// events and core segments advance in time on every call, so the
// occupancy integrator and the window walk do real work each time.
func TestSinkAndProbeDoNotAllocate(t *testing.T) {
	r := mustRecorder(t, RecorderConfig{Cores: 1, Channels: 1, Window: 10, End: 100_000})
	s, p := r.Sink(0), r.CoreProbe(0)
	at := dram.Cycle(0)
	for _, e := range []rh.Event{
		{Kind: rh.EvACT},
		{Kind: rh.EvACT, Injected: true},
		{Kind: rh.EvMitigation, Action: rh.RefreshVictims},
		{Kind: rh.EvMitigation, Action: rh.RefreshVictimsRFMsb},
		{Kind: rh.EvMitigation, Action: rh.RefreshVictimsDRFMsb},
		{Kind: rh.EvRefresh},
		{Kind: rh.EvBulk},
		{Kind: rh.EvQueue, Demand: 3, InjectedQueue: 1},
		{Kind: rh.EvTable, Table: rh.TableOccupancy{Used: 2, Capacity: 8}},
		{Kind: rh.EvServe, Until: 9},
		{Kind: rh.EvBlock, Until: 9},
	} {
		if n := testing.AllocsPerRun(100, func() { at += 13; e.At = at; s.Event(e) }); n != 0 {
			t.Errorf("Event kind %d allocates %v times per call", e.Kind, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { p.CoreSegment(at, at+25, 50, 12, true); at += 25 }); n != 0 {
		t.Errorf("CoreSegment allocates %v times per call", n)
	}
	if at >= r.cfg.End {
		t.Fatalf("events ran past End (%d): the window walk was clamped", at)
	}
}
