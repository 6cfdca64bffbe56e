package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dapper/internal/adversary"
	"dapper/internal/exp"
	"dapper/internal/harness"
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

// runBatch runs a tracker x workload x NRH sweep under every -mode and
// -attack straight to batch.jsonl: every combination is one cached
// point, and the points that share a stream run as one lockstep
// simulation. With -audit every point carries the shadow security
// oracle, and batch prints each tracker's verdict summed over its
// records in batch.jsonl (one per unique point, so a tracker that
// ignores -mode counts its shared run once); -check then fails unless
// the insecure baseline ("none") escapes and every real tracker holds.
func runBatch(c *cli) error {
	if !c.audit {
		if c.countInjected {
			return flagErr("count-injected", fmt.Errorf("needs -audit"))
		}
		if c.check {
			return flagErr("check", fmt.Errorf("needs -audit"))
		}
	}
	p, err := c.resolveProfile()
	if err != nil {
		return err
	}
	if p.TelemetryWindow, err = cycles("window", c.window, false); err != nil {
		return err
	}
	base := exp.BatchRequest{Profile: p, Audit: c.audit, CountInjected: c.countInjected}
	if base.Trackers, err = c.trackerIDs(); err != nil {
		return err
	}
	if base.Workloads, err = c.workloads(); err != nil {
		return err
	}
	if base.NRHs, err = c.nrhs(); err != nil {
		return err
	}
	modes, err := c.modes()
	if err != nil {
		return err
	}
	attacks, err := c.attacks()
	if err != nil {
		return err
	}
	var jobs []harness.Job
	for _, mode := range modes {
		for _, atk := range attacks {
			req := base
			req.Mode, req.Attack = mode, atk
			js, err := req.Jobs()
			if err != nil {
				return err
			}
			jobs = append(jobs, js...)
		}
	}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return fmt.Errorf("harness: out dir: %w", err)
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
			res, err := f.Wait()
			if err == nil && c.audit && res.Audit == nil {
				err = fmt.Errorf("run carried no audit report (stale cache entry?)")
			}
			if err != nil {
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
	if c.audit {
		return auditVerdicts(c, base.Trackers, recs)
	}
	return nil
}

// auditVerdicts prints each tracker's oracle verdict, its escapes
// summed over recs, and, under -check, fails unless the insecure
// baseline ("none") escapes and every real tracker holds.
func auditVerdicts(c *cli, ids []string, recs []harness.Record) error {
	escapes := make(map[string]uint64) // by tracker display name
	for _, r := range recs {
		escapes[r.Desc.Tracker] += r.Result.Audit.Escapes
	}
	var failures []string
	for _, id := range ids {
		name, err := exp.TrackerName(id)
		if err != nil {
			return err
		}
		n := escapes[name]
		verdict := "secure (0 escapes)"
		if n > 0 {
			verdict = fmt.Sprintf("INSECURE (%d escapes)", n)
		}
		fmt.Fprintf(c.stdout, "  %-12s %s\n", id, verdict)
		if id == "none" && n == 0 {
			failures = append(failures, "insecure baseline 'none' showed no escapes — the oracle or the tailored attacks lost their teeth")
		}
		if id != "none" && n > 0 {
			failures = append(failures, fmt.Sprintf("tracker %q let %d escapes through", id, n))
		}
	}
	if !c.check {
		return nil
	}
	for _, f := range failures {
		fmt.Fprintf(c.stderr, "check FAILED: %s\n", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("check failed (%d violations)", len(failures))
	}
	fmt.Fprintln(c.stdout, "conformance check passed: baseline escapes, every tracker holds")
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
