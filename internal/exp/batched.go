package exp

import (
	"cmp"
	"fmt"
	"slices"

	"dapper/internal/attack"
	"dapper/internal/harness"
)

// BatchStats summarizes how a BatchedSweep executed.
type BatchStats struct {
	// Points is the total number of sweep points (runs).
	Points int
	// CacheHits counts points served from the cache without simulating.
	CacheHits int
	// Lockstep counts points a shadow tracker produced while riding a
	// lead's simulation.
	Lockstep int
	// FullRuns counts points that ran a full system simulation: the lead
	// of each shared-stream group plus every point that could not ride
	// one (throttlers, divergence, lone streams).
	FullRuns int
}

// streamKey identifies the memory-request stream a run drives: its
// descriptor with the tracker identity erased, and NRH erased too when
// no trace depends on it. Benign sweeps then share one stream across
// the whole NRH axis, while attack runs, whose attacker traces are
// sized by NRH, keep one stream per NRH (Run.Job gives attacker runs
// no stream, but the key stays right for them).
func streamKey(run Run) string {
	d := run.Desc()
	d.Tracker = ""
	d.Mode = ""
	if !run.hasAttacker() {
		d.NRH = 0
	}
	return d.Key()
}

// hasAttacker reports whether the run's companion core attacks. Only an
// attacker's trace may depend on NRH (named kinds size their
// hammering by it); a benign workload's or an idle companion's does
// not.
func (r Run) hasAttacker() bool {
	return r.Attack.Kind != attack.None
}

// BatchedSweep runs the request's sweep on a harness pool and returns
// the completed records in sweep order (tracker-major, then NRH, then
// workload) plus execution statistics. The pool runs the points that
// share a stream as one lockstep simulation, so a benign NRH sweep
// simulates each workload once.
//
// The points are submitted lightest workload first (lowest access
// rate), so the first group to finish, and with it the first progress
// and OnResult callback, is the cheapest one rather than whichever
// workload the request lists first. Records reach opt's sinks in sweep
// order all the same, and the sinks are closed before returning.
func BatchedSweep(req BatchRequest, opt harness.Options) ([]harness.Record, BatchStats, error) {
	jobs, err := req.Jobs()
	if err != nil {
		return nil, BatchStats{}, err
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	// Jobs runs workload-minor, so job i is of workload i mod len.
	rate := func(i int) float64 { return req.Workloads[i%len(req.Workloads)].AccessPKI }
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(rate(a), rate(b)) })

	sinks := opt.Sinks
	done := harness.NewMemorySink()
	opt.Sinks = []harness.Sink{done}
	pool := harness.NewPool(opt)
	futures := make([]*harness.Future, len(jobs))
	for _, i := range order {
		futures[i] = pool.Submit(jobs[i])
	}
	err = pool.Close()
	st := pool.Stats()
	stats := BatchStats{Points: len(jobs), CacheHits: st.CacheHits, Lockstep: st.Lockstep, FullRuns: st.Ran}
	for _, f := range futures {
		if _, ferr := f.Wait(); ferr != nil {
			err = fmt.Errorf("exp: batched sweep %s: %w", f.Desc(), ferr)
			break
		}
	}
	var records []harness.Record
	if err == nil {
		byKey := make(map[string]harness.Record, len(jobs))
		for _, rec := range done.Records() {
			byKey[rec.Key] = rec
		}
		records = make([]harness.Record, len(jobs))
		for i, job := range jobs {
			records[i] = byKey[job.Desc.Key()]
			for _, s := range sinks {
				if werr := s.Write(records[i]); werr != nil && err == nil {
					err = werr
				}
			}
		}
	}
	for _, s := range sinks {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, stats, err
	}
	return records, stats, nil
}
