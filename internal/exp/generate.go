package exp

import (
	"fmt"

	"dapper/internal/harness"
	"dapper/internal/sim"
)

// execMode selects how a runner satisfies simulation requests.
type execMode int

const (
	// modeSerial runs each request inline (the legacy path; used when no
	// harness is attached, e.g. by unit tests calling generators
	// directly).
	modeSerial execMode = iota
	// modeCollect records every requested run as a harness.Job and
	// returns placeholder results; the generator's table output is
	// discarded.
	modeCollect
	// modeReplay serves each request from the memoized results of the
	// executed jobs; the generator runs exactly the serial code path,
	// so its output is byte-identical to modeSerial.
	modeReplay
)

// harnessCtx threads the collect/replay state through a Profile into
// every runner a generator creates. Generators are strictly sequential
// while collecting and replaying, so no locking is needed.
type harnessCtx struct {
	mode    execMode
	jobs    []harness.Job
	keys    []string
	seen    map[string]bool
	results map[string]sim.Result
}

// record notes one run during the collect pass (once per key).
func (h *harnessCtx) record(run Run) error {
	job, err := run.Job()
	if err != nil {
		return err
	}
	key := job.Desc.Key()
	if h.seen[key] {
		return nil
	}
	h.seen[key] = true
	h.keys = append(h.keys, key)
	h.jobs = append(h.jobs, job)
	return nil
}

// lookup serves one run during the replay pass.
func (h *harnessCtx) lookup(run Run) (sim.Result, error) {
	d := run.Desc()
	res, ok := h.results[d.Key()]
	if !ok {
		return sim.Result{}, fmt.Errorf("exp: replay miss for %s (collect/replay divergence)", d)
	}
	return res, nil
}

// placeholderResult stands in for a real result during the collect
// pass. All scenarios simulate four cores, and downstream arithmetic
// (NormalizedPerf, energy overheads) is written to degrade to zero on
// zero inputs, so the collect pass walks the exact generator control
// flow without simulating.
func placeholderResult() sim.Result {
	return sim.Result{
		IPC:          make([]float64, 4),
		Instructions: make([]uint64, 4),
	}
}

// Generate produces one experiment's table. With a nil pool it is
// equivalent to Lookup(id) followed by the generator call (serial).
// With a pool it runs the generator twice: a collect pass that records
// every simulation the generator will request, a parallel execution of
// those jobs on the pool (deduplicated and cache-served), and a replay
// pass that rebuilds the table from the memoized results. The replay
// pass executes the same code over the same values as a serial run, so
// the returned table is byte-identical for any worker count.
func Generate(id string, p Profile, pool *harness.Pool) (*Table, error) {
	g, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	if pool == nil {
		return g(p)
	}

	collect := &harnessCtx{mode: modeCollect, seen: make(map[string]bool)}
	p.hctx = collect
	tb, err := g(p)
	if err != nil {
		return nil, err
	}
	if len(collect.jobs) == 0 {
		// The generator never touched the simulator (analytic/static
		// tables): nothing was stubbed, so the collect pass produced
		// the genuine result.
		return tb, nil
	}

	futures := make([]*harness.Future, len(collect.jobs))
	for i, job := range collect.jobs {
		futures[i] = pool.Submit(job)
	}
	results := make(map[string]sim.Result, len(futures))
	for i, f := range futures {
		res, err := f.Wait()
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", id, collect.jobs[i].Desc, err)
		}
		results[collect.keys[i]] = res
	}

	p.hctx = &harnessCtx{mode: modeReplay, results: results}
	return g(p)
}
