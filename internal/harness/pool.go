package harness

import (
	"fmt"
	"sync"
	"time"

	"dapper/internal/sim"
	"dapper/internal/telemetry"
)

// Job is one simulation request: its deterministic identity plus the
// closure that produces the result. Run must be safe to execute on any
// goroutine and must not share mutable state with other jobs (sim.Run
// builds a fresh system per call, so exp's specs satisfy this by
// construction).
type Job struct {
	Desc Descriptor
	Run  func() (sim.Result, error)
}

// Future is the pending result of a submitted job. Wait may be called
// from any number of goroutines.
type Future struct {
	desc   Descriptor
	key    string
	done   chan struct{}
	res    sim.Result
	err    error
	cached bool
}

// Wait blocks until the job completes and returns its result.
func (f *Future) Wait() (sim.Result, error) {
	<-f.done
	return f.res, f.err
}

// Cached reports (after Wait) whether the result came from the cache.
func (f *Future) Cached() bool {
	<-f.done
	return f.cached
}

// Desc returns the job's descriptor.
func (f *Future) Desc() Descriptor { return f.desc }

// Stats summarizes a pool's activity.
type Stats struct {
	Submitted int // Submit calls, including duplicates
	Unique    int // distinct descriptor keys accepted
	Ran       int // simulations actually executed
	CacheHits int // results served from the cache
	// CacheMisses counts cache lookups that found nothing (zero when no
	// cache is attached); CacheHits+CacheMisses is the lookup total.
	CacheMisses int
	// Inflight is the number of simulations executing right now — a
	// gauge, not a counter (expvar/debug endpoints poll it live).
	Inflight int
	Errors   int // jobs that returned an error
	// CacheWriteErrors counts failed memoization writes; the runs
	// themselves still succeed.
	CacheWriteErrors int
	// TotalElapsed and MaxElapsed aggregate the wall-clock time of
	// executed simulations (cache hits contribute nothing): the sweep's
	// total compute and its longest single job.
	TotalElapsed time.Duration
	MaxElapsed   time.Duration
}

// Trace lane layout: workers occupy lanes [0, N); cache hits and sink
// flushes get their own lanes above, so a Perfetto view shows one row
// per worker plus the cache and sink activity separately.
const (
	laneCacheOffset = 0
	laneSinkOffset  = 1
)

// queued is one pending dispatch: the future plus the job closure and
// its submission time (for the queue-wait trace span).
type queued struct {
	f         *Future
	job       Job
	submitted time.Time
}

// Pool fans jobs out over a bounded set of workers, deduplicating by
// descriptor key and consulting the cache before simulating. One pool
// can serve many experiments; dedup and the cache then span all of
// them (shared insecure baselines run once per process, not once per
// figure).
//
// Dispatch is bounded: submissions park in an in-memory queue and at
// most Workers goroutines exist at any moment, so a 1e5-point sweep
// costs a slice of queued entries, not 1e5 parked goroutines.
type Pool struct {
	cache      *Cache
	sinks      []Sink
	onProgress func(done, total int)
	onResult   func(Descriptor, sim.Result)
	tracer     *telemetry.Tracer
	workers    int
	wg         sync.WaitGroup

	// cbMu serializes completion bookkeeping + progress callback so
	// OnProgress observes strictly increasing done counts.
	cbMu    sync.Mutex
	mu      sync.Mutex
	queue   []queued
	active  int   // worker goroutines currently alive
	freeIDs []int // trace lane ids not held by a live worker
	futures map[string]*Future
	order   []*Future
	elapsed map[string]time.Duration
	done    int
	stats   Stats
	closed  bool
}

// NewPool builds a pool from options.
func NewPool(opts Options) *Pool {
	n := opts.workers()
	p := &Pool{
		cache:      opts.Cache,
		sinks:      opts.Sinks,
		onProgress: opts.OnProgress,
		onResult:   opts.OnResult,
		tracer:     opts.Tracer,
		workers:    n,
		futures:    make(map[string]*Future),
		elapsed:    make(map[string]time.Duration),
	}
	p.freeIDs = make([]int, n)
	for i := range p.freeIDs {
		p.freeIDs[i] = n - 1 - i // pop from the tail → worker 0 first
	}
	if p.tracer != nil {
		for i := 0; i < n; i++ {
			p.tracer.SetLaneName(i, fmt.Sprintf("worker %d", i))
		}
		p.tracer.SetLaneName(n+laneCacheOffset, "cache")
		p.tracer.SetLaneName(n+laneSinkOffset, "sink")
	}
	return p
}

// Submit enqueues a job and returns its future. A job whose descriptor
// key was already submitted returns the existing future without running
// anything. Submit never blocks: the job parks in the dispatch queue
// until one of the pool's bounded workers frees up.
func (p *Pool) Submit(job Job) *Future {
	key := job.Desc.Key()
	p.mu.Lock()
	p.stats.Submitted++
	if f, ok := p.futures[key]; ok {
		p.mu.Unlock()
		return f
	}
	f := &Future{desc: job.Desc, key: key, done: make(chan struct{})}
	p.futures[key] = f
	p.order = append(p.order, f)
	p.stats.Unique++
	p.wg.Add(1)
	//dapper:wallclock submission timestamp feeds the queue-wait trace span only, never a Result
	p.queue = append(p.queue, queued{f: f, job: job, submitted: time.Now()})
	spawn := p.active < p.workers && len(p.freeIDs) > 0
	var lane int
	if spawn {
		p.active++
		lane = p.freeIDs[len(p.freeIDs)-1]
		p.freeIDs = p.freeIDs[:len(p.freeIDs)-1]
	}
	p.mu.Unlock()
	if spawn {
		go p.worker(lane)
	}
	return f
}

// worker drains the dispatch queue and exits when it is empty; the
// next Submit respawns it. At most Workers workers are ever alive, so
// goroutine count stays O(workers) regardless of backlog depth.
func (p *Pool) worker(lane int) {
	for {
		p.mu.Lock()
		if len(p.queue) == 0 {
			p.active--
			p.freeIDs = append(p.freeIDs, lane)
			p.mu.Unlock()
			return
		}
		item := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		p.execute(lane, item)
	}
}

// execute runs one job to completion on a worker lane.
//
//dapper:wallclock measures cache-lookup and simulation elapsed time for Stats and trace spans; results stay a pure function of the Descriptor
func (p *Pool) execute(lane int, item queued) {
	f, job := item.f, item.job
	defer p.wg.Done()
	if p.cache != nil {
		lookupStart := time.Now()
		res, ok := p.cache.Get(f.key)
		if ok {
			f.res, f.cached = res, true
			if p.tracer != nil {
				p.tracer.Span(p.workers+laneCacheOffset, "hit "+f.desc.String(), "cache",
					lookupStart, time.Now(), map[string]string{"key": f.key})
			}
			p.finish(f, nil, 0)
			return
		}
		p.mu.Lock()
		p.stats.CacheMisses++
		p.mu.Unlock()
	}
	p.mu.Lock()
	p.stats.Inflight++
	p.mu.Unlock()
	start := time.Now()
	res, err := job.Run()
	end := time.Now()
	p.mu.Lock()
	p.stats.Inflight--
	p.mu.Unlock()
	if p.tracer != nil {
		// The queue-wait span sits on the same lane as its run span, so a
		// worker row reads wait → run → wait → run left to right.
		p.tracer.Span(lane, "wait "+f.desc.String(), "queue", item.submitted, start,
			map[string]string{"key": f.key})
		outcome := "ok"
		if err != nil {
			outcome = err.Error()
		}
		p.tracer.Span(lane, f.desc.String(), "run", start, end,
			map[string]string{"key": f.key, "outcome": outcome})
	}
	elapsed := end.Sub(start)
	if err == nil {
		f.res = res
		if p.cache != nil {
			// A failed memoization write must not discard a completed
			// simulation; count it and carry on.
			if perr := p.cache.Put(f.key, res); perr != nil {
				p.mu.Lock()
				p.stats.CacheWriteErrors++
				p.mu.Unlock()
			}
		}
	}
	p.finish(f, err, elapsed)
}

func (p *Pool) finish(f *Future, err error, elapsed time.Duration) {
	f.err = err
	p.cbMu.Lock()
	p.mu.Lock()
	switch {
	case err != nil:
		p.stats.Errors++
	case f.cached:
		p.stats.CacheHits++
	default:
		p.stats.Ran++
	}
	if !f.cached {
		p.stats.TotalElapsed += elapsed
		if elapsed > p.stats.MaxElapsed {
			p.stats.MaxElapsed = elapsed
		}
	}
	p.elapsed[f.key] = elapsed
	p.done++
	done, total := p.done, p.stats.Unique
	cb := p.onProgress
	p.mu.Unlock()
	close(f.done)
	if cb != nil {
		cb(done, total)
	}
	if err == nil && p.onResult != nil {
		p.onResult(f.desc, f.res)
	}
	p.cbMu.Unlock()
}

// Wait blocks until every submitted job has finished.
func (p *Pool) Wait() { p.wg.Wait() }

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close waits for all jobs, streams every successful record to the
// sinks in submission order, and closes the sinks. It is safe to call
// once; further Submits after Close are a programming error.
//
//dapper:wallclock times sink flushes for the tracer's sink lane; the flushed bytes are already ordered and wall-clock free
func (p *Pool) Close() error {
	p.wg.Wait()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("harness: pool closed twice")
	}
	p.closed = true
	order := p.order
	p.mu.Unlock()

	var first error
	for _, f := range order {
		if f.err != nil {
			continue
		}
		rec := Record{
			Key:     f.key,
			Desc:    f.desc,
			Cached:  f.cached,
			Elapsed: p.elapsed[f.key],
			Result:  f.res,
		}
		flushStart := time.Now()
		for _, s := range p.sinks {
			if err := s.Write(rec); err != nil && first == nil {
				first = err
			}
		}
		if p.tracer != nil && len(p.sinks) > 0 {
			p.tracer.Span(p.workers+laneSinkOffset, "flush "+f.desc.String(), "sink",
				flushStart, time.Now(), map[string]string{"key": f.key})
		}
	}
	for _, s := range p.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
