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
// construction). Run is always the independent path: it simulates the
// job alone, whatever the pool does with Stream.
type Job struct {
	Desc Descriptor
	Run  func() (sim.Result, error)
	// Stream, if non-nil, describes the memory stream the job drives, so
	// the pool can run every job sharing it in one lockstep simulation
	// (a sim.Batch) instead of one simulation each. Leave it nil for a
	// job whose Result depends on more than its stream and tracker: an
	// audited, telemetry or attribution run.
	Stream *Stream
}

// Stream names the shared memory stream of a Job.
type Stream struct {
	// Key is equal for two jobs exactly when their simulations drive the
	// same stream until their trackers act differently: the same traces,
	// geometry, windows and engine, whatever the tracker, mode or (when
	// no trace depends on it) NRH.
	Key string
	// Config builds a sim.Config of the stream, traces included; the
	// batch replaces its Tracker and Mode with each member's Point.
	Config func() (sim.Config, error)
	// Point is the job's own tracker and mode.
	Point sim.BatchPoint
}

// Future is the pending result of a submitted job. Wait may be called
// from any number of goroutines.
type Future struct {
	pool    *Pool
	desc    Descriptor
	key     string
	done    chan struct{}
	res     sim.Result
	err     error
	cached  bool
	elapsed time.Duration // wall-clock charged to the job (0 on a hit)
}

// Wait starts the pool's dispatch if it is idle, blocks until the job
// completes and returns its result.
func (f *Future) Wait() (sim.Result, error) {
	f.pool.dispatch()
	<-f.done
	return f.res, f.err
}

// Cached reports (after Wait) whether the result came from the cache.
func (f *Future) Cached() bool {
	f.pool.dispatch()
	<-f.done
	return f.cached
}

// Desc returns the job's descriptor.
func (f *Future) Desc() Descriptor { return f.desc }

// Record returns (after Wait) the job's completed record. It is only
// meaningful for a job that succeeded.
func (f *Future) Record() Record {
	f.pool.dispatch()
	<-f.done
	return Record{Key: f.key, Desc: f.desc, Cached: f.cached, Elapsed: f.elapsed, Result: f.res}
}

// Stats summarizes a pool's activity.
type Stats struct {
	Submitted int // Submit calls, including duplicates
	Unique    int // distinct descriptor keys accepted
	// Ran counts full system simulations: independent runs plus the lead
	// of each lockstep group.
	Ran int
	// Lockstep counts results a shadow tracker produced while riding a
	// lead's simulation, with no system simulation of their own.
	Lockstep  int
	CacheHits int // results served from the cache
	// CacheMisses counts cache lookups that found nothing (zero when no
	// cache is attached); CacheHits+CacheMisses is the lookup total.
	CacheMisses int
	// Inflight is the number of simulations executing right now (a
	// lockstep group counts once) — a gauge, not a counter (expvar/debug
	// endpoints poll it live).
	Inflight int
	Errors   int // jobs that returned an error
	// CacheWriteErrors counts failed cache writes; the runs themselves
	// still succeed.
	CacheWriteErrors int
	// TotalElapsed and MaxElapsed aggregate the wall-clock time charged
	// to simulated jobs (cache hits contribute nothing; the members of a
	// lockstep group share its time evenly): the sweep's total compute
	// and its longest single job.
	TotalElapsed time.Duration
	MaxElapsed   time.Duration
}

// queued is one pending dispatch: the future plus the job closure and
// its submission time (for the queue-wait trace span).
type queued struct {
	f         *Future
	job       Job
	submitted time.Time
}

// Pool fans jobs out over a bounded set of workers, deduplicating by
// descriptor key and consulting the cache, if one is attached, before
// simulating. One pool can serve many experiments; dedup then spans all
// of them (shared insecure baselines run once per process, not once per
// figure), and the cache persists their results across processes.
//
// Submit only queues. Dispatch starts at the first Wait or Close (of
// the pool or of any Future), and takes every job submitted until
// then: jobs with equal Stream keys form one group, which a worker
// runs as one sim.Batch simulation. The members it cannot serve (a
// throttler, a diverging tracker) run alone with Job.Run. Because
// every caller submits its batch before waiting on it, the groups are
// a function of the submission sequence, not of goroutine timing.
//
// Dispatch is bounded: queued jobs are entries in a slice and at most
// Workers goroutines exist at any moment, so a 1e5-point sweep costs a
// slice of queued entries, not 1e5 parked goroutines.
type Pool struct {
	cache      *Cache
	onProgress func(done, total int)
	onResult   func(Descriptor, sim.Result)
	tracer     *telemetry.Tracer
	workers    int
	wg         sync.WaitGroup

	// cbMu serializes completion bookkeeping + progress callback so
	// OnProgress observes strictly increasing done counts.
	cbMu    sync.Mutex
	mu      sync.Mutex
	pending []queued        // submitted, not yet dispatched
	queue   [][]queued      // dispatched groups, in submission order
	solo    []queued        // group members handed back to run alone
	chunks  [][2]*sim.Chunk // per worker lane, kept across groups
	active  int             // worker goroutines currently alive
	freeIDs []int           // trace lane ids not held by a live worker
	futures map[string]*Future
	order   []*Future
	done    int
	stats   Stats
}

// NewPool builds a pool from options.
func NewPool(opts Options) *Pool {
	n := opts.workers()
	p := &Pool{
		cache:      opts.Cache,
		onProgress: opts.OnProgress,
		onResult:   opts.OnResult,
		tracer:     opts.Tracer,
		workers:    n,
		futures:    make(map[string]*Future),
	}
	p.chunks = make([][2]*sim.Chunk, n)
	p.freeIDs = make([]int, n)
	for i := range p.freeIDs {
		p.freeIDs[i] = n - 1 - i // pop from the tail → worker 0 first
	}
	// Trace lanes: one per worker, then the cache lane above them.
	if p.tracer != nil {
		for i := 0; i < n; i++ {
			p.tracer.SetLaneName(i, fmt.Sprintf("worker %d", i))
		}
		p.tracer.SetLaneName(n, "cache")
	}
	return p
}

// Submit queues a job and returns its future. A job whose descriptor
// key was already submitted returns the existing future without running
// anything. Submit never blocks and never starts a run: the job waits
// for the next Wait or Close to dispatch it.
func (p *Pool) Submit(job Job) *Future {
	key := job.Desc.Key()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Submitted++
	if f, ok := p.futures[key]; ok {
		return f
	}
	f := &Future{pool: p, desc: job.Desc, key: key, done: make(chan struct{})}
	p.futures[key] = f
	p.order = append(p.order, f)
	p.stats.Unique++
	p.wg.Add(1)
	//dapper:wallclock submission timestamp feeds the queue-wait trace span only, never a Result
	p.pending = append(p.pending, queued{f: f, job: job, submitted: time.Now()})
	return f
}

// dispatch moves every pending job onto the run queue, grouping the
// jobs that share a stream, and starts workers for it.
func (p *Pool) dispatch() {
	p.mu.Lock()
	if len(p.pending) > 0 {
		groups := make(map[string]int)
		for _, it := range p.pending {
			if s := it.job.Stream; s != nil {
				if i, ok := groups[s.Key]; ok {
					p.queue[i] = append(p.queue[i], it)
					continue
				}
				groups[s.Key] = len(p.queue)
			}
			p.queue = append(p.queue, []queued{it})
		}
		p.pending = nil
	}
	p.spawnLocked()
	p.mu.Unlock()
}

// spawnLocked starts a worker per queued item, up to Workers alive.
func (p *Pool) spawnLocked() {
	for n := len(p.queue) + len(p.solo); n > 0 && p.active < p.workers && len(p.freeIDs) > 0; n-- {
		p.active++
		lane := p.freeIDs[len(p.freeIDs)-1]
		p.freeIDs = p.freeIDs[:len(p.freeIDs)-1]
		go p.worker(lane)
	}
}

// worker drains the run queue, group members handed back first, and
// exits when it is empty; the next dispatch respawns it. At most
// Workers workers are ever alive, so goroutine count stays O(workers)
// regardless of backlog depth.
func (p *Pool) worker(lane int) {
	for {
		p.mu.Lock()
		if len(p.solo) > 0 {
			item := p.solo[0]
			p.solo = p.solo[1:]
			p.mu.Unlock()
			p.run(lane, item)
			continue
		}
		if len(p.queue) == 0 {
			p.active--
			p.freeIDs = append(p.freeIDs, lane)
			p.mu.Unlock()
			return
		}
		group := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		p.runGroup(lane, group)
	}
}

// lookup serves the job from the cache, reporting whether it hit.
//
//dapper:wallclock times the cache lookup for its trace span; the served Result is the cached one
func (p *Pool) lookup(item queued) bool {
	if p.cache == nil {
		return false
	}
	f := item.f
	lookupStart := time.Now()
	res, ok := p.cache.Get(f.key)
	if !ok {
		p.mu.Lock()
		p.stats.CacheMisses++
		p.mu.Unlock()
		return false
	}
	f.res, f.cached = res, true
	if p.tracer != nil {
		p.tracer.Span(p.workers, "hit "+f.desc.String(), "cache",
			lookupStart, time.Now(), map[string]string{"key": f.key})
	}
	p.finish(f, nil, 0, false)
	return true
}

// run simulates one job alone with Job.Run.
//
//dapper:wallclock measures simulation elapsed time for Stats and trace spans; results stay a pure function of the Descriptor
func (p *Pool) run(lane int, item queued) {
	f, job := item.f, item.job
	p.inflight(1)
	start := time.Now()
	res, err := job.Run()
	end := time.Now()
	p.inflight(-1)
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
	if err == nil {
		p.store(f, res)
	}
	p.finish(f, err, end.Sub(start), false)
}

// runGroup runs the jobs of one stream (or one job without a stream):
// cache hits are served per member, two or more misses ride one
// sim.Batch, and every member it does not serve goes to the solo list
// to run alone. A batch error hands back every member, so a bad job
// fails through its own Run.
//
//dapper:wallclock measures the group's elapsed time for Stats and trace spans; results stay a pure function of the Descriptors
func (p *Pool) runGroup(lane int, group []queued) {
	var todo []queued
	for _, it := range group {
		if !p.lookup(it) {
			todo = append(todo, it)
		}
	}
	if len(todo) < 2 {
		for _, it := range todo {
			p.run(lane, it)
		}
		return
	}
	p.inflight(1)
	start := time.Now()
	results, outcomes, err := p.runBatch(lane, todo)
	end := time.Now()
	p.inflight(-1)

	var served int
	var lead *Future
	var rest []queued
	for i, it := range todo {
		switch {
		case err != nil || !outcomes[i].Served():
			rest = append(rest, it)
		case outcomes[i].Reason == sim.FallbackLead:
			lead = it.f
			served++
		default:
			served++
		}
	}
	if lead != nil {
		if p.tracer != nil {
			p.tracer.Span(lane, "wait "+lead.desc.String(), "queue", todo[0].submitted, start,
				map[string]string{"key": lead.key})
			p.tracer.Span(lane, fmt.Sprintf("%s +%d lockstep", lead.desc.String(), served-1), "run", start, end,
				map[string]string{"key": lead.key, "outcome": "ok"})
		}
		per := end.Sub(start) / time.Duration(served)
		for i, it := range todo {
			if outcomes[i].Served() {
				p.store(it.f, results[i])
				p.finish(it.f, nil, per, outcomes[i].Lockstep)
			}
		}
	}
	if len(rest) > 0 {
		p.mu.Lock()
		p.solo = append(p.solo, rest...)
		p.spawnLocked()
		p.mu.Unlock()
	}
}

// runBatch runs a group's members as one sim.Batch over the first
// member's stream. The lead simulates on this worker while a second
// goroutine replays its chunks into the followers, so their tracker
// work overlaps the lead's simulation; the lane's two chunks bound the
// hand-off, and are kept for the lane's next group.
func (p *Pool) runBatch(lane int, group []queued) ([]sim.Result, []sim.BatchOutcome, error) {
	cfg, err := group[0].job.Stream.Config()
	if err != nil {
		return nil, nil, err
	}
	points := make([]sim.BatchPoint, len(group))
	for i, it := range group {
		points[i] = it.job.Stream.Point
	}
	b, err := sim.NewBatch(cfg, points)
	if err != nil {
		return nil, nil, err
	}
	chunks := &p.chunks[lane]
	if chunks[0] == nil {
		chunks[0], chunks[1] = sim.NewChunk(), sim.NewChunk()
	}
	todo, free := make(chan *sim.Chunk, 1), make(chan *sim.Chunk, 1)
	free <- chunks[1]
	replayed := make(chan struct{})
	go func() {
		defer close(replayed)
		for c := range todo {
			b.Replay(c)
			free <- c
		}
	}()
	err = b.Lead(chunks[0], func(c *sim.Chunk) *sim.Chunk {
		todo <- c
		return <-free
	})
	close(todo)
	<-replayed
	if err != nil {
		return nil, nil, err
	}
	return b.Results()
}

func (p *Pool) inflight(d int) {
	p.mu.Lock()
	p.stats.Inflight += d
	p.mu.Unlock()
}

// store sets f's result and writes it to the cache, if one is
// attached. A failed cache write must not discard a completed
// simulation; it is counted and the run carries on.
func (p *Pool) store(f *Future, res sim.Result) {
	f.res = res
	if p.cache == nil {
		return
	}
	if err := p.cache.Put(f.key, res); err != nil {
		p.mu.Lock()
		p.stats.CacheWriteErrors++
		p.mu.Unlock()
	}
}

func (p *Pool) finish(f *Future, err error, elapsed time.Duration, lockstep bool) {
	defer p.wg.Done()
	f.err = err
	p.cbMu.Lock()
	p.mu.Lock()
	switch {
	case err != nil:
		p.stats.Errors++
	case f.cached:
		p.stats.CacheHits++
	case lockstep:
		p.stats.Lockstep++
	default:
		p.stats.Ran++
	}
	if !f.cached {
		p.stats.TotalElapsed += elapsed
		if elapsed > p.stats.MaxElapsed {
			p.stats.MaxElapsed = elapsed
		}
	}
	f.elapsed = elapsed
	p.done++
	done, total := p.done, p.stats.Unique
	cb := p.onProgress
	p.mu.Unlock()
	if cb != nil {
		cb(done, total)
	}
	if err == nil && p.onResult != nil {
		p.onResult(f.desc, f.res)
	}
	// Complete the future only after its callbacks, so a caller that
	// waited on every future it submitted never runs beside them.
	close(f.done)
	p.cbMu.Unlock()
}

// Wait dispatches every submitted job and blocks until all have
// finished.
func (p *Pool) Wait() {
	p.dispatch()
	p.wg.Wait()
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Records waits for every submitted job and returns the record of each
// one that succeeded, in submission order (not completion order), so
// files written from them are the same at any worker count.
func (p *Pool) Records() []Record {
	p.Wait()
	p.mu.Lock()
	order := p.order
	p.mu.Unlock()
	recs := make([]Record, 0, len(order))
	for _, f := range order {
		if f.err == nil {
			recs = append(recs, f.Record())
		}
	}
	return recs
}

// Close waits for every submitted job, like Wait. It always returns
// nil; the error result stays for callers that check it (simbench's
// workload runner does).
func (p *Pool) Close() error {
	p.Wait()
	return nil
}
