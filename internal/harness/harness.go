// Package harness orchestrates fleets of independent simulation runs:
// the scaling layer between the experiment generators (internal/exp)
// and the simulator core (internal/sim).
//
// The moving parts, in data-flow order:
//
//	Job    — one simulation request: a Descriptor (the deterministic,
//	         hashable identity of the run), a Run closure that produces
//	         the sim.Result alone, and optionally the Stream it drives.
//	Pool   — a bounded worker pool (runtime.NumCPU() workers by
//	         default) and the one sweep executor. Submissions are
//	         deduplicated by descriptor key, so shared baselines across
//	         figures execute once. Dispatch starts at the first Wait or
//	         Close; jobs with equal Stream keys then run as one lockstep
//	         simulation (a sim.Batch, its followers replayed on a second
//	         goroutine), and the members it cannot serve run alone with
//	         Job.Run.
//	Cache  — a directory of JSON results keyed by the descriptor hash
//	         (the -cache flag), so the same build can rerun whole
//	         experiment suites without resimulating anything. The pool
//	         dedups within a process; the cache only persists.
//	Record — one completed run. Pool.Records hands them back in
//	         submission order (not completion order), and WriteJSONL
//	         writes them, so the file is the same at any worker count.
//
// Generators fan out by submitting every job they will need, then
// replaying their table construction against the pool's results —
// output is byte-identical to a serial run at any worker count.
package harness

import (
	"runtime"

	"dapper/internal/sim"
	"dapper/internal/telemetry"
)

// Options configures a Pool.
type Options struct {
	// Workers bounds concurrent simulations; <=0 means
	// runtime.NumCPU().
	Workers int
	// Cache, if non-nil, persists results in its directory across
	// processes; within a pool, Submit's dedup already shares them.
	Cache *Cache
	// OnProgress, if non-nil, is called after each job finishes with
	// the number of finished and submitted unique jobs.
	OnProgress func(done, total int)
	// OnResult, if non-nil, is called after each successful job (cached
	// or freshly simulated) with its descriptor and result, serialized
	// under the same lock as OnProgress. Purely observational — live
	// dashboards (internal/diag's blame aggregator) tap it; results,
	// ordering and caching are unaffected.
	OnResult func(Descriptor, sim.Result)
	// Tracer, if non-nil, records per-job spans (queue wait, execution,
	// cache hits) for Chrome-trace export. Purely
	// observational: results, ordering and caching are unaffected.
	Tracer *telemetry.Tracer
}

func (o Options) workers() int { return NormalizeJobs(o.Workers) }

// NormalizeJobs resolves a -jobs style worker count: values <= 0 mean
// "use every CPU". Every cmd and pool shares this clamp so no entry
// point can silently accept a zero-worker configuration (which would
// deadlock a bounded pool).
func NormalizeJobs(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}
