package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dapper/internal/adversary"
	"dapper/internal/attack"
	"dapper/internal/exp"
	"dapper/internal/harness"
	"dapper/internal/secaudit"
	"dapper/internal/sim"
)

// runExperiments regenerates the paper's tables and figures (fig1..fig17,
// tab1..tab4, sec-h). Simulations fan out over -jobs workers; the tables
// on stdout are byte-identical for any worker count.
func runExperiments(c *cli) error {
	p, err := c.resolveProfile()
	if err != nil {
		return err
	}
	exps, err := exp.Select(c.exp)
	if err != nil {
		return flagErr("exp", err)
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return fmt.Errorf("harness: out dir: %w", err)
	}
	fmt.Fprintf(c.stdout, "profile: %s (%d workloads, sweep %v)\n\n", p.Name, len(p.Workloads), p.NRHSweep)
	var recs []harness.Record
	st, err := c.withPool(func(pool *harness.Pool) error {
		tables, err := exp.Generate(exps, p, pool)
		for _, tb := range tables {
			tb.Fprint(c.stdout)
		}
		recs = pool.Records()
		return err
	})
	if werr := c.writeRecords("results", recs); err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stderr, "simulations: %d ran, %d lockstep, %d cache hits, %d deduplicated (of %d requests) on %d workers\n",
		st.Ran, st.Lockstep, st.CacheHits, st.Submitted-st.Unique, st.Submitted, c.jobs)
	fmt.Fprintf(c.stderr, "records: %s\n", filepath.Join(c.out, "results.jsonl"))
	return nil
}

// runBatch runs an arbitrary tracker x workload x NRH sweep straight to
// batch.jsonl: every combination is one cached point, and the
// points that share a stream run as one lockstep simulation.
func runBatch(c *cli) error {
	p, err := c.resolveProfile()
	if err != nil {
		return err
	}
	if p.TelemetryWindow, err = cycles("window", c.window, false); err != nil {
		return err
	}
	req := exp.BatchRequest{Profile: p}
	if req.Trackers, err = c.trackerIDs(); err != nil {
		return err
	}
	if req.Workloads, err = c.workloads(); err != nil {
		return err
	}
	if req.NRHs, err = c.nrhs(); err != nil {
		return err
	}
	if req.Mode, err = only("mode", c.modes); err != nil {
		return err
	}
	atk, err := only("attack", c.attacks)
	if err != nil {
		return err
	}
	if atk.Point.Params != (attack.Params{}) {
		return flagErr("attack", fmt.Errorf("batch sweeps attack kinds; %q is a parametric point (use audit or sim)", atk.Name))
	}
	req.Attack = atk.Point.Kind
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return fmt.Errorf("harness: out dir: %w", err)
	}
	jobs, err := req.Jobs()
	if err != nil {
		return err
	}
	//dapper:wallclock sweep elapsed-time for the summary line only
	start := time.Now()
	failed := 0
	var recs []harness.Record
	st, err := c.withPool(func(pool *harness.Pool) error {
		futures := make([]*harness.Future, len(jobs))
		for i, job := range jobs {
			futures[i] = pool.Submit(job)
		}
		for _, f := range futures {
			if _, err := f.Wait(); err != nil {
				fmt.Fprintf(c.stderr, "\n%s: %v\n", f.Desc(), err)
				failed++
			}
		}
		recs = pool.Records()
		return nil
	})
	if werr := c.writeRecords("batch", recs); err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	// "simulated" counts every point a simulation produced: full runs
	// and the lockstep points that rode a lead's.
	fmt.Fprintf(c.stdout, "%d runs (%d simulated, %d cache hits, %d deduplicated; %d full runs, %d lockstep) in %.1fs on %d workers\n",
		st.Submitted, st.Ran+st.Lockstep, st.CacheHits, st.Submitted-st.Unique, st.Ran, st.Lockstep,
		//dapper:wallclock elapsed seconds printed in the run summary, not written to any file
		time.Since(start).Seconds(), c.jobs)
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	fmt.Fprintf(c.stdout, "wrote %s\n", filepath.Join(c.out, "batch.jsonl"))
	return nil
}

// runAudit runs the shadow security oracle over a tracker x attack x
// mode x NRH sweep and writes audit-matrix.jsonl: one line per cell
// with the oracle verdict next to the headline activity counters. The
// matrix carries no engine tag and no wall-clock, so a rerun — or a run
// on the other -engine — writes a byte-identical file. -check fails
// unless the insecure baseline ("none") escapes and every real tracker
// holds.
func runAudit(c *cli) error {
	p, err := c.resolveProfile()
	if err != nil {
		return err
	}
	req := exp.SecurityRequest{Profile: p, CountInjected: c.countInjected}
	if req.Trackers, err = c.trackerIDs(); err != nil {
		return err
	}
	if req.Attacks, err = c.attacks(); err != nil {
		return err
	}
	if req.Modes, err = c.modes(); err != nil {
		return err
	}
	if req.NRHs, err = c.nrhs(); err != nil {
		return err
	}
	if req.Workload, err = only("workload", c.workloads); err != nil {
		return err
	}
	sweep, cells, err := req.Jobs()
	if err != nil {
		return err
	}

	rows := make([]secaudit.MatrixRow, len(cells))
	escapes := make(map[string]uint64)
	st, err := c.withPool(func(pool *harness.Pool) error {
		futs := make([]*harness.Future, len(sweep))
		for i, job := range sweep {
			futs[i] = pool.Submit(job)
		}
		for i, f := range futs {
			cell := cells[i]
			res, err := f.Wait()
			if err != nil {
				return fmt.Errorf("audit %s/%s: %w", cell.Tracker, cell.Attack, err)
			}
			rep := res.Audit
			if rep == nil {
				return fmt.Errorf("audit %s/%s: run carried no audit report (stale cache entry?)", cell.Tracker, cell.Attack)
			}
			rows[i] = secaudit.MatrixRow{
				Tracker: cell.Tracker, TrackerName: cell.TrackerName,
				Mode: cell.Mode.String(), NRH: cell.NRH, Attack: cell.Attack,
				Workload: cell.Workload, Profile: p.Name,
				Secure: rep.Secure(), Escapes: rep.Escapes,
				EscapedRows: rep.EscapedRows, MaxCount: rep.MaxCount, Margin: rep.Margin,
				ACTs: rep.ACTs, InjectedACTs: rep.InjectedACTs,
				Mitigations: rep.Mitigations, Refreshes: rep.Refreshes,
				BulkResets: rep.BulkResets, Throttled: res.Tracker.Throttled,
			}
			if a := res.Attribution; a != nil {
				m := a.SumMem(sim.BenignCores(len(a.Cores)))
				rows[i].Attr = true
				rows[i].BlameMitigation, rows[i].BlameInject, rows[i].BlameThrottle = m.Mitigation, m.Inject, m.Throttle
			}
			escapes[cell.Tracker] += rep.Escapes
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := c.writeFile("audit-matrix.jsonl", func(w io.Writer) error { return secaudit.WriteMatrixJSONL(w, rows) }); err != nil {
		return err
	}

	fmt.Fprintf(c.stdout, "conformance matrix: %d cells (%d unique runs, %d simulated, %d cache hits)\n",
		len(rows), st.Unique, st.Ran, st.CacheHits)
	for _, id := range req.Trackers {
		verdict := "secure (0 escapes)"
		if n := escapes[id]; n > 0 {
			verdict = fmt.Sprintf("INSECURE (%d escapes)", n)
		}
		fmt.Fprintf(c.stdout, "  %-12s %s\n", id, verdict)
	}
	if !c.check {
		return nil
	}
	var failures []string
	for _, id := range req.Trackers {
		n := escapes[id]
		if id == "none" && n == 0 {
			failures = append(failures, "insecure baseline 'none' showed no escapes — the oracle or the tailored attacks lost their teeth")
		}
		if id != "none" && n > 0 {
			failures = append(failures, fmt.Sprintf("tracker %q let %d escapes through", id, n))
		}
	}
	if err := checkFailures(c, failures); err != nil {
		return err
	}
	fmt.Fprintln(c.stdout, "conformance check passed: baseline escapes, every tracker holds")
	return nil
}

// checkFailures prints each -check failure on stderr and turns any of
// them into an error.
func checkFailures(c *cli, failures []string) error {
	for _, f := range failures {
		fmt.Fprintf(c.stderr, "check FAILED: %s\n", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("check failed (%d violations)", len(failures))
	}
	return nil
}

// runAdversary searches the parametric attack space for worst-case
// attacks against each tracker and writes adversary-<tracker>.jsonl:
// the worst-found parameters, their benign-core slowdown against the
// paper's hand-crafted tailored attack, and the full search trace. The
// same -seed and -budget produce byte-identical reports.
func runAdversary(c *cli) error {
	if c.budget < 1 {
		return flagErr("budget", fmt.Errorf("must be at least 1, got %d", c.budget))
	}
	p, err := c.resolveProfile()
	if err != nil {
		return err
	}
	ids, err := c.trackerIDs()
	if err != nil {
		return err
	}
	opts := adversary.Options{Profile: p, Budget: c.budget, Seed: c.seed}
	if opts.NRH, err = only("nrh", c.nrhs); err != nil {
		return err
	}
	if opts.Mode, err = only("mode", c.modes); err != nil {
		return err
	}
	if opts.Objective, err = adversary.ParseObjective(c.objective); err != nil {
		return flagErr("objective", err)
	}
	if opts.Workload, err = only("workload", c.workloads); err != nil {
		return err
	}

	evals, baselines := 0, 0
	st, err := c.withPool(func(pool *harness.Pool) error {
		for _, id := range ids {
			opts.TrackerID = id
			rep, err := adversary.Search(opts, pool)
			if err != nil {
				return err
			}
			evals += rep.Evals
			baselines += rep.BaselineRuns
			fmt.Fprint(c.stderr, "\r\033[K")
			if err := c.writeFile("adversary-"+rep.Tracker+".jsonl", rep.WriteJSONL); err != nil {
				return err
			}
			fmt.Fprintln(c.stdout, rep.Summary())
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stderr, "%d evaluations + %d baseline submissions (%d simulated, %d cache hits) on %d workers\n",
		evals, baselines, st.Ran, st.CacheHits, c.jobs)
	return nil
}
