package harness

import (
	"bytes"
	"testing"
	"time"

	"dapper/internal/dram"
	"dapper/internal/goldentest"
	"dapper/internal/rh"
	"dapper/internal/secaudit"
	"dapper/internal/sim"
	"dapper/internal/telemetry"
)

// goldenSeries builds a small deterministic windowed series through the
// real Recorder, so the golden pins the exact fold arithmetic and JSON
// shape a telemetry run produces.
func goldenSeries() *telemetry.Series {
	rec, err := telemetry.NewRecorder(telemetry.Config{
		Cores: 2, Channels: 1,
		Window: dram.US(10), End: dram.US(35), Warmup: dram.US(5),
	})
	if err != nil {
		panic(err)
	}
	sink := rec.Sink(0)
	for _, e := range []rh.Event{
		{Kind: rh.EvACT, At: dram.US(2)},
		{Kind: rh.EvACT, At: dram.US(12), Injected: true},
		{Kind: rh.EvMitigation, At: dram.US(13), Action: rh.RefreshVictims, Row: 7},
		{Kind: rh.EvRefresh, At: dram.US(22)},
		{Kind: rh.EvBulk, At: dram.US(31)},
		{Kind: rh.EvQueue, At: dram.US(4), Demand: 3, InjectedQueue: 1},
		{Kind: rh.EvQueue, At: dram.US(18)},
		{Kind: rh.EvTable, At: dram.US(15), Table: rh.TableOccupancy{Used: 12, Capacity: 64}},
		{Kind: rh.EvTable, At: dram.US(30), Table: rh.TableOccupancy{Used: 4, Capacity: 64, Resets: 1}},
	} {
		sink.Event(e)
	}
	rec.CoreProbe(0).CoreSegment(0, dram.US(35), uint64(dram.US(35))*2, dram.US(30), false)
	rec.CoreProbe(1).CoreSegment(0, dram.US(35), 0, 0, false)
	s, _, err := rec.Finish(nil)
	if err != nil {
		panic(err)
	}
	return s
}

// goldenRecords is a fixed three-record stream: a plain run, an
// audited cache hit, and a telemetry-tagged run with an embedded
// windowed series — covering every serialized field including the
// embedded oracle report and the series JSON.
func goldenRecords() []Record {
	d1 := Descriptor{
		Tracker: "Hydra", Mode: "VRR-BR1", NRH: 500,
		Workload: "429.mcf", Attack: "hydra-conflict",
		Geometry: dram.Baseline(), Timing: "ddr5",
		Warmup: dram.US(5), Measure: dram.US(30), Seed: 1,
		Engine: "event",
	}
	d2 := Descriptor{
		Tracker: "none", Mode: "VRR-BR1", NRH: 125,
		Workload: "ycsb_a", Attack: "parametric",
		AttackParams: "s(r0.g0.gs0.rs0.rb0.rh0.b8.rk0.hf1.hr2.hb7.hs996.bu0.cf0.sb0)|w(r0.g0.gs0.rs0.rb0.rh0.b0.rk0.hf0.hr0.hb0.hs0.bu0.cf0.sb0)|wa0|p0",
		Geometry:     dram.Baseline(), Timing: "ddr5",
		Warmup: dram.US(5), Measure: dram.US(30), Seed: 1,
		Engine: "event", Audit: "v1",
	}
	r1 := sim.Result{
		IPC:          []float64{1.25, 1.5, 0.75, 2},
		Instructions: []uint64{150000, 180000, 90000, 240000},
		Cycles:       dram.US(30),
		LLCHitRate:   0.875,
		TrackerNames: []string{"Hydra", "Hydra"},
	}
	r1.Counters.ACT = 4200
	r1.Counters.RD = 9000
	r1.Counters.WR = 1000
	r1.Counters.REF = 32
	r1.Counters.VRR = 17
	r1.Tracker.Activations = 4200
	r1.Tracker.Mitigations = 17
	r1.Tracker.VictimRefreshes = 17
	r1.Mem.ReadsServed = 9000
	r1.Mem.WritesServed = 1000
	r2 := sim.Result{
		IPC:          []float64{1, 1, 1, 0.5},
		Instructions: []uint64{120000, 120000, 120000, 60000},
		Cycles:       dram.US(30),
		TrackerNames: []string{"none", "none"},
		Audit: &secaudit.Report{
			NRH: 125, Mode: "VRR-BR1",
			ACTs: 8372, Refreshes: 32,
			Escapes: 2, EscapedRows: 2, MaxCount: 332, Margin: -1.656,
			Worst: []secaudit.Escape{
				{Channel: 0, Rank: 0, BankGroup: 0, Bank: 0, Row: 6, At: 54321, Count: 125},
				{Channel: 1, Rank: 0, BankGroup: 0, Bank: 0, Row: 8, At: 54833, Count: 125},
			},
		},
	}
	d4 := Descriptor{
		Tracker: "DAPPER-S", Mode: "VRR-BR1", NRH: 500,
		Workload: "429.mcf", Attack: "refresh",
		Geometry: dram.Baseline(), Timing: "ddr5",
		Warmup: dram.US(5), Measure: dram.US(30), Seed: 1,
		Engine: "event", Telemetry: TelemetryTag(dram.US(10)),
	}
	r4 := sim.Result{
		IPC:          []float64{2, 0},
		Instructions: []uint64{240000, 0},
		Cycles:       dram.US(30),
		LLCHitRate:   0.25,
		TrackerNames: []string{"DAPPER-S", "DAPPER-S"},
		Series:       goldenSeries(),
	}
	r4.Counters.ACT = 2
	return []Record{
		{Key: d1.Key(), Desc: d1, Cached: false, Elapsed: 1234 * time.Millisecond, Result: r1},
		{Key: d2.Key(), Desc: d2, Cached: true, Elapsed: 0, Result: r2},
		{Key: d4.Key(), Desc: d4, Cached: false, Elapsed: 789 * time.Millisecond, Result: r4},
	}
}

// TestSinkGoldenJSONL pins the JSONL sink's byte-exact output,
// including descriptor keys (so accidental cache-key changes surface
// here, loudly) and the embedded audit report.
func TestSinkGoldenJSONL(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	for _, r := range goldenRecords() {
		if err := s.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	goldentest.Check(t, "sink.jsonl.golden", buf.Bytes())
}

// TestSinkGoldenCSV pins the CSV sink's byte-exact output.
func TestSinkGoldenCSV(t *testing.T) {
	var buf bytes.Buffer
	s := NewCSVSink(&buf)
	for _, r := range goldenRecords() {
		if err := s.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	goldentest.Check(t, "sink.csv.golden", buf.Bytes())
}
