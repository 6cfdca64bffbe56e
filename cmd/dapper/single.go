package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"dapper/internal/attack"
	"dapper/internal/diag"
	"dapper/internal/dram"
	"dapper/internal/exp"
	"dapper/internal/sim"
	"dapper/internal/telemetry"
)

// single is sim's one-run shape: three benign copies of a workload
// plus the attacker on the fourth core, or four benign copies when the
// attack is "none" — the same co-run the paper's figures use.
type single struct {
	trackers []string
	run      exp.Run // every field but the tracker
}

// resolveSingle resolves sim's flags and rejects a run any of its
// trackers cannot be built for before anything simulates. A -window
// above 0 turns on both the windowed series and the attribution, the
// two halves of the report sim then writes.
func (c *cli) resolveSingle() (single, error) {
	s := single{run: exp.Run{Geometry: dram.Baseline(), Seed: c.seed}}
	var err error
	if s.run.Warmup, err = cycles("warmup", c.warmup, true); err != nil {
		return s, err
	}
	if s.run.Measure, err = cycles("measure", c.measure, true); err != nil {
		return s, err
	}
	if s.run.TelemetryWindow, err = cycles("window", c.window, false); err != nil {
		return s, err
	}
	s.run.Attribution = s.run.TelemetryWindow > 0
	if s.trackers, err = c.trackerIDs(); err != nil {
		return s, err
	}
	w, err := only("workload", c.workloads)
	if err != nil {
		return s, err
	}
	s.run.Workload = w.Name
	if s.run.Attack.Kind, err = only("attack", c.attacks); err != nil {
		return s, err
	}
	s.run.Benign4 = s.run.Attack.Kind == attack.None
	if s.run.NRH, err = only("nrh", c.nrhs); err != nil {
		return s, err
	}
	if s.run.Mode, err = only("mode", c.modes); err != nil {
		return s, err
	}
	if s.run.Engine, err = c.resolveEngine(); err != nil {
		return s, err
	}
	if c.rowsPerBank > math.MaxUint32 {
		return s, flagErr("rows-per-bank", fmt.Errorf("must be at most %d, got %d", uint32(math.MaxUint32), c.rowsPerBank))
	}
	if c.rowsPerBank != 0 {
		s.run.Geometry = dram.Scaled(uint32(c.rowsPerBank))
	}
	for _, id := range s.trackers {
		if err := s.runFor(id).Validate(); err != nil {
			return s, usageError{fmt.Errorf("%s: %w", id, err)}
		}
	}
	return s, nil
}

// runFor is the run of tracker id.
func (s single) runFor(id string) exp.Run {
	r := s.run
	r.Tracker = id
	return r
}

// runChecked simulates tracker id on the -engine and, with check,
// replays it on the other engine: the two Results must marshal to the
// same bytes, attribution and windowed series included.
func (s single) runChecked(id string, check bool) (sim.Result, error) {
	r := s.runFor(id)
	res, err := r.Exec()
	if err != nil || !check {
		return res, err
	}
	r.Engine = otherEngine(r.Engine)
	replay, err := r.Exec()
	if err != nil {
		return res, fmt.Errorf("%s replay: %w", r.Engine, err)
	}
	a, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	b, err := json.Marshal(replay)
	if err != nil {
		return res, err
	}
	if !bytes.Equal(a, b) {
		return res, fmt.Errorf("engines diverge: %s and %s results are not byte-identical", s.run.Engine.OrDefault(), r.Engine)
	}
	return res, nil
}

// runSim runs one simulation per tracker and prints IPC, DRAM and
// tracker statistics. -check replays each run on the other engine.
// With -debug-addr it serves expvar and pprof while it runs, so a
// single run can be CPU-profiled from outside. With -window it also
// writes each run's report (see writeTimeline).
func runSim(c *cli) error {
	s, err := c.resolveSingle()
	if err != nil {
		return err
	}
	if c.debugAddr != "" {
		dbg, err := diag.Serve(c.debugAddr, nil)
		if err != nil {
			return flagErr("debug-addr", err)
		}
		defer dbg.Close()
		fmt.Fprintf(c.stderr, "debug endpoint on http://%s/debug/pprof/\n", dbg.Addr())
	}
	for _, id := range s.trackers {
		res, err := s.runChecked(id, c.check)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintf(c.stdout, "workload=%s tracker=%s attack=%s NRH=%d measure=%gus\n",
			s.run.Workload, res.TrackerNames[0], s.run.Attack.Kind, s.run.NRH, c.measure)
		for i, ipc := range res.IPC {
			role := "benign"
			if i == 3 && s.run.Attack.Kind != attack.None {
				role = "attacker"
			}
			fmt.Fprintf(c.stdout, "  core %d (%s): IPC %.3f (%d instructions)\n", i, role, ipc, res.Instructions[i])
		}
		ct := res.Counters
		fmt.Fprintf(c.stdout, "  DRAM: ACT=%d RD=%d WR=%d REF=%d VRR=%d RFMsb=%d DRFMsb=%d bulk=%d (rows %d)\n",
			ct.ACT, ct.RD, ct.WR, ct.REF, ct.VRR, ct.RFMsb, ct.DRFMsb, ct.BulkEvents, ct.BulkRows)
		fmt.Fprintf(c.stdout, "  counter traffic: reads=%d writes=%d\n", ct.InjRD, ct.InjWR)
		ts := res.Tracker
		fmt.Fprintf(c.stdout, "  tracker: activations=%d mitigations=%d victim-refreshes=%d bulk-resets=%d throttled=%d\n",
			ts.Activations, ts.Mitigations, ts.VictimRefreshes, ts.BulkResets, ts.Throttled)
		fmt.Fprintf(c.stdout, "  LLC hit rate: %.3f  row hits: %d  row misses: %d\n",
			res.LLCHitRate, res.Mem.RowHits, res.Mem.RowMisses)
		if c.check {
			fmt.Fprintf(c.stdout, "check passed: %s == %s byte-identical\n", s.run.Engine.OrDefault(), otherEngine(s.run.Engine))
		}
		if s.run.TelemetryWindow > 0 {
			if err := c.writeTimeline(s, id, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeTimeline renders tracker id's windowed run as one report: the
// cycle-windowed time-series (per-core IPC, stall split and memory-wait
// blame; per-channel demand vs injected ACT rate, mitigation rate by
// kind, queue and tracker-table occupancy), the per-core CPI stacks and
// the core-to-core blame matrix, to timeline-<id>.jsonl (every window
// cell, then the "core" and "matrix" lines) and timeline-<id>.txt (the
// ASCII stacks and the matrix). sim.Run has already failed any run whose
// series or attribution breaks an invariant or disagrees with the DRAM
// counters, so nothing is re-checked here.
func (c *cli) writeTimeline(s single, id string, res sim.Result) error {
	ser, a := res.Series, res.Attribution
	if ser == nil || a == nil {
		return fmt.Errorf("%s: run produced no series or no attribution", id)
	}
	// Core labels: the benign workload copies plus the attacker slot.
	labels := make([]string, len(a.Cores))
	for i := range labels {
		labels[i] = s.run.Workload
	}
	if s.run.Attack.Kind != attack.None {
		labels[len(labels)-1] = "!" + s.run.Attack.Kind.String()
	}
	name := "timeline-" + id
	if err := c.writeFile(name+".jsonl", func(w io.Writer) error { return telemetry.WriteSeriesJSONL(w, ser, a) }); err != nil {
		return err
	}
	if err := c.writeFile(name+".txt", func(w io.Writer) error { return telemetry.RenderBlameASCII(w, a, labels) }); err != nil {
		return err
	}
	m := a.SumMem(sim.BenignCores(len(a.Cores)))
	fmt.Fprintf(c.stdout, "workload=%s tracker=%s attack=%s NRH=%d: %d windows of %gus over %d cycles (VRR=%d RFMsb=%d DRFMsb=%d bulk=%d), benign wait %d (mitigation %d, inject %d)\n",
		s.run.Workload, res.TrackerNames[0], s.run.Attack.Kind, s.run.NRH, ser.NumWindows(), c.window,
		ser.Cycles, ser.Totals.VRR, ser.Totals.RFMsb, ser.Totals.DRFMsb, ser.Totals.Bulk, m.Total, m.Mitigation, m.Inject)
	return nil
}

// otherEngine is the engine a -check replay runs on.
func otherEngine(e sim.Engine) sim.Engine {
	if e.OrDefault() == sim.EngineCycle {
		return sim.EngineEvent
	}
	return sim.EngineCycle
}
