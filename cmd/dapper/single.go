package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/exp"
	"dapper/internal/sim"
	"dapper/internal/telemetry"
)

// single is the one-run shape sim, timeline and blame share: three
// benign copies of a workload plus the attacker on the fourth core, or
// four benign copies when the attack is "none" — the same co-run the
// paper's figures use.
type single struct {
	trackers []string
	attack   exp.SecurityAttack
	run      exp.Run // every field but the tracker
}

// resolveSingle resolves the flags of a one-run subcommand and rejects
// a run any of its trackers cannot be built for before anything
// simulates. -window is read only by the subcommands that take it; the
// others leave it zero.
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
	if s.trackers, err = c.trackerIDs(); err != nil {
		return s, err
	}
	w, err := only("workload", c.workloads)
	if err != nil {
		return s, err
	}
	s.run.Workload = w.Name
	if s.attack, err = only("attack", c.attacks); err != nil {
		return s, err
	}
	s.run.Attack = s.attack.Point
	s.run.Benign4 = s.attack.Point.Kind == attack.None
	if s.run.NRH, err = only("nrh", c.nrhs); err != nil {
		return s, err
	}
	if s.run.Mode, err = only("mode", c.modes); err != nil {
		return s, err
	}
	if s.run.Engine, err = c.resolveEngine(); err != nil {
		return s, err
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

// checkFormat validates -format against the formats a subcommand writes.
func (c *cli) checkFormat(formats ...string) error {
	for _, f := range append(formats, "all") {
		if c.format == f {
			return nil
		}
	}
	return flagErr("format", fmt.Errorf("unknown format %q (want %v or all)", c.format, formats))
}

// wants reports whether -format selects format.
func (c *cli) wants(format string) bool { return c.format == format || c.format == "all" }

// runSim runs one simulation per tracker and prints IPC, DRAM and
// tracker statistics.
func runSim(c *cli) error {
	s, err := c.resolveSingle()
	if err != nil {
		return err
	}
	for _, id := range s.trackers {
		res, err := s.runFor(id).Exec()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintf(c.stdout, "workload=%s tracker=%s attack=%s NRH=%d window=%.0fus\n",
			s.run.Workload, res.TrackerNames[0], s.attack.Name, s.run.NRH, c.measure)
		for i, ipc := range res.IPC {
			role := "benign"
			if i == 3 && s.attack.Point.Kind != attack.None {
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
	}
	return nil
}

// runTimeline renders each tracker's run as a cycle-windowed
// time-series (per-core IPC and stall fraction, per-channel demand vs
// injected ACT rate, mitigation rate by kind, queue and tracker-table
// occupancy) to timeline.{jsonl,csv}, or timeline-<tracker>.* when
// -tracker names several. -check re-verifies the series invariants,
// gates ACT/mitigation conservation against the run's DRAM counters,
// and replays the run on the other engine.
func runTimeline(c *cli) error {
	if c.window <= 0 {
		return flagErr("window", fmt.Errorf("must be positive (microseconds), got %g", c.window))
	}
	if err := c.checkFormat("jsonl", "csv"); err != nil {
		return err
	}
	s, err := c.resolveSingle()
	if err != nil {
		return err
	}
	for _, id := range s.trackers {
		res, err := s.runChecked(id, c.check)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		ser := res.Series
		if ser == nil {
			return fmt.Errorf("%s: run produced no series (TelemetryWindow not plumbed?)", id)
		}
		if c.check {
			if err := checkSeries(ser, res, s.run.Measure); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			fmt.Fprintf(c.stdout, "check passed: %d windows, invariants hold, ACT conserved (%d), %s == %s byte-identical\n",
				ser.NumWindows(), ser.Totals.DemandACT+ser.Totals.InjACT, s.run.Engine.OrDefault(), otherEngine(s.run.Engine))
		}
		name := "timeline"
		if len(s.trackers) > 1 {
			name += "-" + id
		}
		if c.wants("jsonl") {
			if err := c.writeFile(name+".jsonl", func(w io.Writer) error { return telemetry.WriteSeriesJSONL(w, ser) }); err != nil {
				return err
			}
		}
		if c.wants("csv") {
			if err := c.writeFile(name+".csv", func(w io.Writer) error { return telemetry.WriteSeriesCSV(w, ser) }); err != nil {
				return err
			}
		}
		fmt.Fprintf(c.stdout, "workload=%s tracker=%s attack=%s NRH=%d: %d windows of %dus over %d cycles (VRR=%d RFMsb=%d DRFMsb=%d bulk=%d)\n",
			s.run.Workload, res.TrackerNames[0], s.attack.Name, s.run.NRH, ser.NumWindows(), int64(c.window),
			ser.Cycles, ser.Totals.VRR, ser.Totals.RFMsb, ser.Totals.DRFMsb, ser.Totals.Bulk)
	}
	return nil
}

// checkSeries re-checks the window grid and the per-window sums against
// the series' own grand totals; the exact grand-total-vs-DRAM-counter
// gate already ran inside sim.Run. What remains checkable here is
// containment: the series covers warmup + measure, so its totals can
// never undercount the measure-only deltas in res.Counters.
func checkSeries(ser *telemetry.Series, res sim.Result, measure dram.Cycle) error {
	if err := ser.Validate(); err != nil {
		return fmt.Errorf("series invariants: %w", err)
	}
	if ser.Cycles != ser.Warmup+measure {
		return fmt.Errorf("series span %d != warmup %d + measure %d", ser.Cycles, ser.Warmup, measure)
	}
	if acts := ser.Totals.DemandACT + ser.Totals.InjACT; acts < res.Counters.ACT {
		return fmt.Errorf("ACT conservation: whole-run series %d (demand %d + injected %d) < measure-window counter %d",
			acts, ser.Totals.DemandACT, ser.Totals.InjACT, res.Counters.ACT)
	}
	if ser.Totals.VRR < res.Counters.VRR || ser.Totals.REF < res.Counters.REF {
		return fmt.Errorf("mitigation conservation: series VRR=%d REF=%d < measure-window VRR=%d REF=%d",
			ser.Totals.VRR, ser.Totals.REF, res.Counters.VRR, res.Counters.REF)
	}
	return nil
}

// runBlame answers "why is it slow?": one attribution-enabled run per
// tracker, rendered as per-core CPI stacks, the memory-wait blame
// breakdown and the core-to-core blame matrix (blame-<tracker>.{jsonl,
// csv,txt} and blame-matrix-<tracker>.csv). -check validates the
// attribution (CPI stacks partition cycles, blame buckets sum to each
// core's wait), folds the windowed blame back onto the grand totals and
// replays the run on the other engine.
func runBlame(c *cli) error {
	if err := c.checkFormat("jsonl", "csv", "ascii"); err != nil {
		return err
	}
	s, err := c.resolveSingle()
	if err != nil {
		return err
	}
	s.run.Attribution = true
	for _, id := range s.trackers {
		res, err := s.runChecked(id, c.check)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		a := res.Attribution
		if a == nil {
			return fmt.Errorf("%s: run produced no attribution (Config.Attribution not plumbed?)", id)
		}
		verdict := ""
		if c.check {
			if err := a.Validate(); err != nil {
				return fmt.Errorf("%s: attribution invariants: %w", id, err)
			}
			if ser := res.Series; ser != nil {
				if err := a.CheckSeries(ser); err != nil {
					return fmt.Errorf("%s: windowed blame: %w", id, err)
				}
			}
			verdict = " [check passed: conserved + engine byte-identical]"
		}
		if c.wants("jsonl") {
			if err := c.writeFile("blame-"+id+".jsonl", func(w io.Writer) error { return telemetry.WriteBlameJSONL(w, a, res.Series) }); err != nil {
				return err
			}
		}
		if c.wants("csv") {
			if err := c.writeFile("blame-"+id+".csv", func(w io.Writer) error { return telemetry.WriteBlameCSV(w, a) }); err != nil {
				return err
			}
			if err := c.writeFile("blame-matrix-"+id+".csv", func(w io.Writer) error { return telemetry.WriteBlameMatrixCSV(w, a) }); err != nil {
				return err
			}
		}
		if c.wants("ascii") {
			// Core labels: the benign workload copies plus the attacker slot.
			labels := make([]string, len(a.Cores))
			for i := range labels {
				labels[i] = s.run.Workload
			}
			if s.attack.Point.Kind != attack.None {
				labels[len(labels)-1] = "!" + s.attack.Name
			}
			if err := c.writeFile("blame-"+id+".txt", func(w io.Writer) error { return telemetry.RenderBlameASCII(w, a, labels) }); err != nil {
				return err
			}
		}
		var benignWait, blameMit, blameInj uint64
		for _, core := range sim.BenignCores(len(a.Cores)) {
			m := a.Cores[core].Mem
			benignWait += m.Total
			blameMit += m.Mitigation
			blameInj += m.Inject
		}
		fmt.Fprintf(c.stdout, "%-12s attack=%s NRH=%d: benign wait %d (mitigation %d, inject %d)%s\n",
			res.TrackerNames[0], s.attack.Name, s.run.NRH, benignWait, blameMit, blameInj, verdict)
	}
	return nil
}

// otherEngine is the engine a -check replay runs on.
func otherEngine(e sim.Engine) sim.Engine {
	if e.OrDefault() == sim.EngineCycle {
		return sim.EngineEvent
	}
	return sim.EngineCycle
}
