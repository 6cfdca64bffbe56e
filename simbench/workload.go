package main

import (
	"fmt"
	"os"
	"time"

	"dapper/internal/attack"
	"dapper/internal/exp"
	"dapper/internal/harness"
	"dapper/internal/rh"
	"dapper/internal/sim"
	"dapper/internal/telemetry"
	"dapper/internal/workloads"
)

// workers is the pool and batch concurrency of every workload. The
// machine the benchmark was tuned on has two cores; one worker keeps
// repeated passes within a few percent of each other, two spread ~40%.
const workers = 1

// workload is one named input set.
type workload struct {
	name string
	// slowdownCores, when non-nil, names the benign cores whose mean
	// DAPPER-H slowdown versus the insecure baseline the workload
	// reports as model_slowdown_pct; paperSlowdown is the paper's value.
	slowdownCores []int
	paperSlowdown string
}

var allWorkloads = []workload{
	{name: "benign", slowdownCores: []int{0, 1, 2, 3}, paperSlowdown: "0.1"},
	{name: "perf-attack", slowdownCores: sim.BenignCores(4), paperSlowdown: "<1"},
	{name: "nrh-sweep"},
}

func workloadByName(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// sweepNRHs is the nrh-sweep threshold axis: 500 to 64000, doubling.
var sweepNRHs = []uint32{500, 1000, 2000, 4000, 8000, 16000, 32000, 64000}

// requests returns the sweep requests a workload expands, in spec
// order. Every request uses DAPPER-H at VRR-BR1 with quick-profile
// geometry and windows; profile carries the trace seed and engine.
func requests(name string, profile exp.Profile) []exp.BatchRequest {
	rep := workloads.Representative()
	base := exp.BatchRequest{
		Trackers:  []string{"none", "dapper-h"},
		Workloads: rep,
		NRHs:      []uint32{500},
		Attack:    attack.None,
		Mode:      rh.VRR1,
		Profile:   profile,
	}
	switch name {
	case "benign":
		return []exp.BatchRequest{base}
	case "perf-attack":
		streaming, refresh := base, base
		streaming.Workloads, refresh.Workloads = rep[:4], rep[:4]
		streaming.Attack, refresh.Attack = attack.StreamingSweep, attack.Refresh
		return []exp.BatchRequest{streaming, refresh}
	case "nrh-sweep":
		sweep := base
		sweep.Trackers = []string{"dapper-h"}
		sweep.NRHs = sweepNRHs
		return []exp.BatchRequest{sweep}
	}
	return nil
}

// point is one completed sweep point.
type point struct {
	desc   harness.Descriptor
	res    sim.Result
	cached bool
	// full marks a point that ran a whole system simulation (cores,
	// LLC, controller); the others were lockstep tracker replays or
	// cache hits.
	full bool
}

// pass is one run of a workload: its points in spec order plus the
// harness and batch counters it produced.
type pass struct {
	points []point
	// warm holds the nrh-sweep's second, cache-served pass.
	warm        []point
	wall        time.Duration
	allocBytes  uint64
	fullRuns    int
	lockstep    int
	cacheHits   int
	cacheMisses int
}

// runner carries what a pass needs besides the workload: the profile
// (seed, engine), an optional tracer for spans, a scratch directory
// and an optional hook fired when the first point completes.
type runner struct {
	workload string
	profile  exp.Profile
	tmpDir   string
	tracer   *telemetry.Tracer
	spans    map[string]time.Duration // total time per span name
	onFirst  func()
	// independent runs the nrh-sweep through BatchRequest.Jobs on a pool
	// instead of exp.BatchedSweep (the pin-time equivalence check).
	independent bool
}

// benchLane is the tracer lane of the benchmark's own spans; the pool
// uses lanes from 0 up to its worker count plus two.
const benchLane = 100

// span runs fn and, when tracing, records it as a span on the bench
// lane named after the exp or harness call it wraps.
//
//dapper:wallclock span timestamps are diagnostics of the benchmark, never inputs to a Result
func (r *runner) span(name string, fn func()) {
	if r.tracer == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	end := time.Now()
	r.tracer.Span(benchLane, name, "bench", start, end, map[string]string{"parent": "pass " + r.workload})
	if r.spans == nil {
		r.spans = make(map[string]time.Duration)
	}
	r.spans[name] += end.Sub(start)
}

func (r *runner) first() {
	if r.onFirst != nil {
		r.onFirst()
		r.onFirst = nil
	}
}

// run makes one pass: every point of the workload once.
func (w workload) run(r *runner) (*pass, error) {
	reqs := requests(w.name, r.profile)
	if w.name == "nrh-sweep" && !r.independent {
		return sweepPass(r, reqs[0])
	}
	return poolPass(r, reqs)
}

// poolPass expands the requests into jobs and runs them on a harness
// pool with no cache, waiting on each future in spec order.
func poolPass(r *runner, reqs []exp.BatchRequest) (*pass, error) {
	var jobs []harness.Job
	var err error
	r.span("exp.BatchRequest.Jobs", func() {
		for _, req := range reqs {
			var js []harness.Job
			if js, err = req.Jobs(); err != nil {
				return
			}
			jobs = append(jobs, js...)
		}
	})
	if err != nil {
		return nil, err
	}
	pool := harness.NewPool(harness.Options{Workers: workers, Tracer: r.tracer})
	futures := make([]*harness.Future, len(jobs))
	r.span("harness.Pool.Submit", func() {
		for i, j := range jobs {
			futures[i] = pool.Submit(j)
		}
	})
	p := &pass{points: make([]point, len(jobs))}
	for i, f := range futures {
		var res sim.Result
		r.span("harness.Future.Wait", func() { res, err = f.Wait() })
		if err != nil {
			_ = pool.Close() // the job error is the one to report
			return nil, fmt.Errorf("%s: %w", f.Desc(), err)
		}
		p.points[i] = point{desc: f.Desc(), res: res, cached: f.Cached(), full: !f.Cached()}
		r.first()
	}
	r.span("harness.Pool.Close", func() { err = pool.Close() })
	if err != nil {
		return nil, err
	}
	st := pool.Stats()
	p.fullRuns, p.cacheHits, p.cacheMisses = st.Ran, st.CacheHits, st.CacheMisses
	return p, nil
}

// sweepPass runs the NRH sweep through exp.BatchedSweep into a fresh
// disk cache (the cold pass), then runs the same request again on a new
// Cache over that directory (the warm pass).
func sweepPass(r *runner, req exp.BatchRequest) (*pass, error) {
	dir, err := os.MkdirTemp(r.tmpDir, "cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	p := &pass{}
	var recs []harness.Record
	var st exp.BatchStats
	for i, name := range []string{"cold", "warm"} {
		var cache *harness.Cache
		r.span("harness.NewCache", func() { cache, err = harness.NewCache(dir) })
		if err != nil {
			return nil, err
		}
		opts := harness.Options{Workers: workers, Cache: cache}
		if i == 0 {
			opts.OnResult = func(harness.Descriptor, sim.Result) { r.first() }
		}
		r.span("exp.BatchedSweep "+name, func() { recs, st, err = exp.BatchedSweep(req, opts) })
		if err != nil {
			return nil, err
		}
		cs := cache.Stats()
		p.cacheHits += int(cs.Hits)
		p.cacheMisses += int(cs.Misses)
		if err := cache.Close(); err != nil {
			return nil, err
		}
		points := make([]point, len(recs))
		for j, rec := range recs {
			points[j] = point{desc: rec.Desc, res: rec.Result, cached: rec.Cached}
		}
		if i == 0 {
			p.points = points
			p.fullRuns, p.lockstep = st.FullRuns, st.Lockstep
			if err := markLeads(p.points, st.FullRuns); err != nil {
				return nil, err
			}
		} else {
			p.warm = points
		}
	}
	return p, nil
}

// markLeads marks as full the first simulated point of each
// shared-stream group, the point sim.RunBatch simulates in full while
// the rest of its group replay the recorded stream. The grouping
// mirrors exp's: the descriptor without the tracker identity, and
// without NRH when no attack trace depends on it. A sweep with
// fallbacks has more full runs than groups; the benchmark's workloads
// have none, and a count that disagrees is an error.
func markLeads(points []point, fullRuns int) error {
	seen := make(map[string]bool)
	leads := 0
	for i := range points {
		if points[i].cached {
			continue
		}
		d := points[i].desc
		d.Tracker, d.Mode = "", ""
		if d.Attack == attack.None.String() {
			d.NRH = 0
		}
		if k := d.Key(); !seen[k] {
			seen[k] = true
			points[i].full = true
			leads++
		}
	}
	if leads != fullRuns {
		return fmt.Errorf("batched sweep ran %d full simulations for %d stream groups", fullRuns, leads)
	}
	return nil
}
