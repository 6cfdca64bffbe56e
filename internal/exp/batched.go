package exp

import (
	"fmt"
	"sync"
	"time"

	"dapper/internal/attack"
	"dapper/internal/harness"
	"dapper/internal/sim"
)

// BatchedSweep executes a BatchRequest through sim.RunBatch instead of
// one sim.Run per point: runs that share a memory-request stream
// (same workload traces, geometry and windows — everything except the
// tracker under test) are grouped, their traces decoded once, and all
// trackers in the group advanced in lockstep behind a single system
// simulation. Points whose tracker perturbs the stream (throttlers,
// ACT taxes, LLC reservations, or detected divergence) transparently
// fall back to independent runs inside RunBatch, so every record is
// byte-identical to what the Jobs/Pool path would have produced.
//
// Descriptors — and therefore cache keys — are shared with Jobs: a
// sweep half-served from a disk cache stays coherent no matter which
// runner populated it. Records are delivered to opt.Sinks in sweep
// order (tracker-major, then NRH, then workload), matching the pool's
// submission-order guarantee.

// BatchStats summarizes how a BatchedSweep executed.
type BatchStats struct {
	// Points is the total number of sweep points (runs).
	Points int
	// Groups is the number of shared-stream groups actually simulated
	// (fully-cached groups are skipped).
	Groups int
	// CacheHits counts points served from the cache without simulating.
	CacheHits int
	// Lockstep counts points replayed against a lead's recorded stream.
	Lockstep int
	// FullRuns counts points that ran a full system simulation (the
	// lead of each group plus every fallback).
	FullRuns int
	// Reasons histograms the non-lockstep outcomes by FallbackReason
	// (the lead itself appears under "lead").
	Reasons map[string]int
}

// batchGroup is one shared-stream group: indices into the run slice,
// in sweep order (the first member's config is the base config).
type batchGroup struct {
	key     string
	members []int
}

// streamKey identifies the memory-request stream a run drives: its
// descriptor with the tracker identity erased. NRH participates only
// when an attack trace is generated from it; benign sweeps share one
// stream across the whole NRH axis.
func streamKey(run Run) string {
	d := run.Desc()
	d.Tracker = ""
	d.Mode = ""
	if run.Attack.Kind == attack.None {
		d.NRH = 0
	}
	return d.Key()
}

// BatchedSweep runs the request's sweep through the lockstep batch
// runner and returns the completed records in sweep order plus
// execution statistics. Sinks in opt are flushed and closed before
// returning. Workers bounds concurrent groups; Cache is consulted
// per point and populated with fresh results; OnProgress/OnResult
// fire per completed point like the pool's callbacks.
//
//dapper:wallclock times group execution for Record.Elapsed and progress reporting; simulated results are pure functions of the descriptors
func BatchedSweep(req BatchRequest, opt harness.Options) ([]harness.Record, BatchStats, error) {
	runs, err := req.runs()
	if err != nil {
		return nil, BatchStats{}, err
	}
	stats := BatchStats{Points: len(runs), Reasons: make(map[string]int)}

	type slot struct {
		res     sim.Result
		outcome sim.BatchOutcome
		elapsed time.Duration
		cached  bool
		filled  bool
	}
	slots := make([]slot, len(runs))
	descs := make([]harness.Descriptor, len(runs))
	keys := make([]string, len(runs))

	// Serve cache hits first; group only what still needs simulating.
	var groups []*batchGroup
	byKey := make(map[string]*batchGroup)
	for i, run := range runs {
		descs[i] = run.Desc()
		keys[i] = descs[i].Key()
		if opt.Cache != nil {
			if res, ok := opt.Cache.Get(keys[i]); ok {
				slots[i] = slot{res: res, cached: true, filled: true}
				stats.CacheHits++
				continue
			}
		}
		gk := streamKey(run)
		g, ok := byKey[gk]
		if !ok {
			g = &batchGroup{key: gk}
			byKey[gk] = g
			groups = append(groups, g)
		}
		g.members = append(g.members, i)
	}
	stats.Groups = len(groups)

	var (
		mu       sync.Mutex
		firstErr error
		done     int
	)
	finishPoint := func(i int) {
		done++
		if opt.OnProgress != nil {
			opt.OnProgress(done, len(runs))
		}
		if opt.OnResult != nil && slots[i].filled {
			opt.OnResult(descs[i], slots[i].res)
		}
	}

	sem := make(chan struct{}, harness.NormalizeJobs(opt.Workers))
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g *batchGroup) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			mu.Lock()
			abort := firstErr != nil
			mu.Unlock()
			if abort {
				return
			}

			first := runs[g.members[0]]
			cfg, err := first.config()
			var (
				results  []sim.Result
				outcomes []sim.BatchOutcome
				per      time.Duration
			)
			if err == nil {
				// The first member's tracker rides along in cfg; every
				// point below overrides it.
				points := make([]sim.BatchPoint, len(g.members))
				for j, si := range g.members {
					points[j].Tracker, points[j].Mode = runs[si].tracker()
				}
				start := time.Now()
				results, outcomes, err = sim.RunBatch(cfg, points)
				// The group shares one decode and (for lockstep points) one
				// system simulation; charge each point its even share.
				per = time.Since(start) / time.Duration(len(g.members))
			}

			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("exp: batched group %s: %w", first.Workload, err)
				}
				return
			}
			for j, si := range g.members {
				slots[si] = slot{res: results[j], outcome: outcomes[j], elapsed: per, filled: true}
				if opt.Cache != nil {
					// A failed memoization write must not discard a completed
					// simulation (same policy as the pool).
					_ = opt.Cache.Put(keys[si], results[j])
				}
				finishPoint(si)
			}
		}(g)
	}
	wg.Wait()

	// Cached points report progress after the simulated ones so the
	// callback still sees strictly increasing counts.
	mu.Lock()
	for i := range runs {
		if slots[i].cached {
			finishPoint(i)
		}
	}
	mu.Unlock()

	if firstErr != nil {
		for _, s := range opt.Sinks {
			_ = s.Close()
		}
		return nil, stats, firstErr
	}

	records := make([]harness.Record, len(runs))
	for i := range runs {
		records[i] = harness.Record{
			Key:     keys[i],
			Desc:    descs[i],
			Cached:  slots[i].cached,
			Elapsed: slots[i].elapsed,
			Result:  slots[i].res,
		}
		switch {
		case slots[i].cached:
			// cache hits count neither as lockstep nor full runs
		case slots[i].outcome.Lockstep:
			stats.Lockstep++
			stats.Reasons["lockstep"]++
		default:
			stats.FullRuns++
			stats.Reasons[string(slots[i].outcome.Reason)]++
		}
	}

	var sinkErr error
	for _, rec := range records {
		for _, s := range opt.Sinks {
			if err := s.Write(rec); err != nil && sinkErr == nil {
				sinkErr = err
			}
		}
	}
	for _, s := range opt.Sinks {
		if err := s.Close(); err != nil && sinkErr == nil {
			sinkErr = err
		}
	}
	return records, stats, sinkErr
}
