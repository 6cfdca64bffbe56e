package secaudit_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/core"
	"dapper/internal/dram"
	"dapper/internal/rh"
	"dapper/internal/secaudit"
	"dapper/internal/sim"
	"dapper/internal/workloads"
)

func testConfig(nrh uint32) secaudit.Config {
	return secaudit.Config{
		Geometry: dram.Baseline(),
		NRH:      nrh,
		Mode:     rh.VRR1,
	}
}

// mustNew builds an audit, failing the test on a configuration error.
func mustNew(t *testing.T, cfg secaudit.Config) *secaudit.Audit {
	t.Helper()
	a, err := secaudit.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func loc(row uint32) dram.Loc { return dram.Loc{Row: row} }

// act, mitigate, refresh and bulk feed the oracle the ledger's four
// event kinds.
func act(s rh.Sink, at dram.Cycle, l dram.Loc, injected bool) {
	s.Event(rh.Event{Kind: rh.EvACT, At: at, Loc: l, Injected: injected})
}

func mitigate(s rh.Sink, at dram.Cycle, kind rh.ActionKind, l dram.Loc, row uint32) {
	s.Event(rh.Event{Kind: rh.EvMitigation, At: at, Action: kind, Loc: l, Row: row})
}

func refresh(s rh.Sink, at dram.Cycle, rank int) {
	s.Event(rh.Event{Kind: rh.EvRefresh, At: at, Rank: rank})
}

func bulk(s rh.Sink, at dram.Cycle, rank int) {
	s.Event(rh.Event{Kind: rh.EvBulk, At: at, Rank: rank})
}

// TestChargeAndEscape drives the ledger directly: hammering one row NRH
// times must flag both neighbors exactly once each.
func TestChargeAndEscape(t *testing.T) {
	a := mustNew(t, testConfig(10))
	o := a.Sink(0)
	for i := 0; i < 12; i++ {
		act(o, dram.Cycle(i), loc(100), false)
	}
	r := a.Report()
	if r.Escapes != 2 || r.EscapedRows != 2 {
		t.Fatalf("want 2 escapes on rows 99/101, got %+v", r)
	}
	if r.MaxCount != 12 {
		t.Fatalf("max count: want 12, got %d", r.MaxCount)
	}
	if r.Secure() {
		t.Fatal("report claims secure despite escapes")
	}
	if len(r.Worst) != 2 || r.Worst[0].Row != 99 || r.Worst[1].Row != 101 {
		t.Fatalf("worst records wrong: %+v", r.Worst)
	}
	if r.Worst[0].At != 9 || r.Worst[0].Count != 10 {
		t.Fatalf("escape should fire at the NRH-th ACT: %+v", r.Worst[0])
	}
}

// TestMitigationResets checks a VRR on the aggressor clears its victims'
// charge, and that the blast radius follows the mode.
func TestMitigationResets(t *testing.T) {
	a := mustNew(t, testConfig(10))
	o := a.Sink(0)
	for i := 0; i < 9; i++ {
		act(o, dram.Cycle(i), loc(100), false)
	}
	mitigate(o, 9, rh.RefreshVictims, loc(100), 100)
	for i := 0; i < 9; i++ {
		act(o, dram.Cycle(20+i), loc(100), false)
	}
	r := a.Report()
	if r.Escapes != 0 {
		t.Fatalf("mitigation did not reset victims: %+v", r)
	}
	if r.MaxCount != 9 || r.Mitigations != 1 {
		t.Fatalf("want max 9 / 1 mitigation, got %+v", r)
	}
}

// TestSameBankMitigation checks the RFMsb reset fans out across bank
// groups like the controller's blocking does.
func TestSameBankMitigation(t *testing.T) {
	a := mustNew(t, testConfig(10))
	o := a.Sink(0)
	other := dram.Loc{BankGroup: 5, Row: 100}
	for i := 0; i < 9; i++ {
		act(o, dram.Cycle(i), other, false)
	}
	// RFM targeting bank group 0 still covers bank group 5 (same bank
	// index within the rank).
	mitigate(o, 9, rh.RefreshVictimsRFMsb, loc(100), 100)
	for i := 0; i < 9; i++ {
		act(o, dram.Cycle(20+i), other, false)
	}
	if r := a.Report(); r.Escapes != 0 {
		t.Fatalf("RFMsb reset did not cover sibling bank groups: %+v", r)
	}
}

// TestRefreshBoundary checks the per-row auto-refresh reset: REF slots
// cycle over the row space, so after enough REFs the hammered row's
// neighbors are refreshed and the charge restarts.
func TestRefreshBoundary(t *testing.T) {
	cfg := testConfig(10)
	// DDR5 has tREFW/tREFI = 8205 REF slots per window; with twice as
	// many rows per bank, each REF refreshes 2 rows.
	timing := dram.DDR5()
	cfg.Geometry = dram.Scaled(2 * uint32(timing.TREFW/timing.TREFI))
	a := mustNew(t, cfg)
	o := a.Sink(0)
	for i := 0; i < 9; i++ {
		act(o, dram.Cycle(i), loc(4), false)
	}
	// Slots 0/1/2 cover rows 0..5: rows 3 and 5 (the victims) reset.
	for i := 0; i < 3; i++ {
		refresh(o, dram.Cycle(100+i), 0)
	}
	for i := 0; i < 9; i++ {
		act(o, dram.Cycle(200+i), loc(4), false)
	}
	r := a.Report()
	if r.Escapes != 0 {
		t.Fatalf("refresh boundary did not reset: %+v", r)
	}
	if r.Refreshes != 3 {
		t.Fatalf("want 3 REFs observed, got %d", r.Refreshes)
	}
}

// TestBulkRefreshResets checks a rank sweep clears the whole rank and
// only that rank.
func TestBulkRefreshResets(t *testing.T) {
	a := mustNew(t, testConfig(10))
	o := a.Sink(0)
	rank1 := dram.Loc{Rank: 1, Row: 100}
	for i := 0; i < 9; i++ {
		act(o, dram.Cycle(i), loc(100), false)
		act(o, dram.Cycle(i), rank1, false)
	}
	bulk(o, 50, 0) // rank 0 only
	act(o, 60, loc(100), false)
	act(o, 60, rank1, false)
	r := a.Report()
	if r.Escapes != 2 {
		t.Fatalf("rank-0 sweep should spare rank 1 (2 escapes there), got %+v", r)
	}
	for _, w := range r.Worst {
		if w.Rank != 1 {
			t.Fatalf("escape recorded in swept rank: %+v", w)
		}
	}
}

// TestInjectedAccounting: injected ACTs are tallied but only charged
// with CountInjected.
func TestInjectedAccounting(t *testing.T) {
	for _, count := range []bool{false, true} {
		cfg := testConfig(10)
		cfg.CountInjected = count
		a := mustNew(t, cfg)
		o := a.Sink(0)
		for i := 0; i < 10; i++ {
			act(o, dram.Cycle(i), loc(100), true)
		}
		r := a.Report()
		if r.InjectedACTs != 10 || r.ACTs != 0 {
			t.Fatalf("count=%v: want 10 injected / 0 demand, got %+v", count, r)
		}
		if gotEsc := r.Escapes > 0; gotEsc != count {
			t.Fatalf("count=%v: escapes=%d", count, r.Escapes)
		}
	}
}

// dapperS builds a DAPPER-S factory for the baseline geometry.
func dapperS(t *testing.T, nrh uint32) sim.TrackerFactory {
	t.Helper()
	return func(ch int) rh.Tracker {
		d, err := core.NewDapperS(ch, core.Config{Geometry: dram.Baseline(), NRH: nrh})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
}

// runAudited executes one audited co-run and returns the result.
func runAudited(t *testing.T, tracker sim.TrackerFactory, mode rh.MitigationMode,
	nrh uint32, engine sim.Engine) (*secaudit.Report, sim.Result) {
	t.Helper()
	geo := dram.Baseline()
	w, err := workloads.ByName("ycsb_a")
	if err != nil {
		t.Fatal(err)
	}
	traces := sim.BenignTraces(w, 3, geo, 3)
	atk, err := attack.NewTrace(attack.Config{
		Geometry: geo, NRH: nrh, Kind: attack.Parametric,
		Params: attack.Params{Steady: attack.Pattern{
			HotFrac: 1, HotRows: 2, HotBase: 7, HotStride: 996, Banks: 8,
		}},
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	audit := mustNew(t, secaudit.Config{Geometry: geo, NRH: nrh, Mode: mode})
	res, err := sim.Run(sim.Config{
		Geometry: geo,
		Traces:   append(traces, atk),
		Warmup:   dram.US(5),
		Measure:  dram.US(30),
		Mode:     mode,
		Tracker:  tracker,
		Engine:   engine,
		Sink:     audit.Sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	return audit.Report(), res
}

// TestOracleEndToEnd: the insecure baseline must escape under the
// focused hammer while DAPPER-S holds, and both oracle verdicts must be
// byte-identical across the event and cycle engines — the second,
// independent engine-equivalence check.
func TestOracleEndToEnd(t *testing.T) {
	const nrh = 125
	for _, tc := range []struct {
		name    string
		tracker sim.TrackerFactory
		escapes bool
	}{
		{"nop", nil, true},
		{"dapper-s", dapperS(t, nrh), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			repEvent, resEvent := runAudited(t, tc.tracker, rh.VRR1, nrh, sim.EngineEvent)
			repCycle, resCycle := runAudited(t, tc.tracker, rh.VRR1, nrh, sim.EngineCycle)
			if got := repEvent.Escapes > 0; got != tc.escapes {
				t.Fatalf("escapes=%d want escapes>0 == %v (report: %s)",
					repEvent.Escapes, tc.escapes, repEvent.Summary())
			}
			je, _ := json.Marshal(repEvent)
			jc, _ := json.Marshal(repCycle)
			if string(je) != string(jc) {
				t.Fatalf("oracle diverges across engines:\n event: %s\n cycle: %s", je, jc)
			}
			if !reflect.DeepEqual(resEvent, resCycle) {
				t.Fatalf("results diverge across engines with the oracle attached")
			}
		})
	}
}

// TestObserverIsPassive: attaching the oracle must not change the
// simulation outcome.
func TestObserverIsPassive(t *testing.T) {
	const nrh = 125
	_, with := runAudited(t, nil, rh.VRR1, nrh, sim.EngineEvent)
	geo := dram.Baseline()
	w, err := workloads.ByName("ycsb_a")
	if err != nil {
		t.Fatal(err)
	}
	traces := sim.BenignTraces(w, 3, geo, 3)
	atk, err := attack.NewTrace(attack.Config{
		Geometry: geo, NRH: nrh, Kind: attack.Parametric,
		Params: attack.Params{Steady: attack.Pattern{
			HotFrac: 1, HotRows: 2, HotBase: 7, HotStride: 996, Banks: 8,
		}},
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	without, err := sim.Run(sim.Config{
		Geometry: geo,
		Traces:   append(traces, atk),
		Warmup:   dram.US(5),
		Measure:  dram.US(30),
		Mode:     rh.VRR1,
	})
	if err != nil {
		t.Fatal(err)
	}
	with.Audit = nil
	if !reflect.DeepEqual(with, without) {
		t.Fatalf("the oracle perturbed the simulation:\n with:    %+v\n without: %+v", with, without)
	}
}
