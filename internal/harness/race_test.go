package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"dapper/internal/core"
	"dapper/internal/dram"
	"dapper/internal/rh"
	"dapper/internal/sim"
	"dapper/internal/workloads"
)

// TestPoolConcurrentSubmitStress drives the pool the way the race
// detector needs to see it driven: many goroutines submitting
// overlapping job sets (so dedup, the cache, the progress callback and
// Future.Wait from multiple waiters all contend at once). The test
// asserts the aggregate bookkeeping; its real job is giving
// `go test -race` (the CI race step) a worst-case interleaving of every
// shared structure in the pool.
func TestPoolConcurrentSubmitStress(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var progressCalls int // guarded by the pool's cbMu contract
	pool := NewPool(Options{
		Workers: 4,
		Cache:   cache,
		OnProgress: func(done, total int) {
			progressCalls++
		},
	})

	const (
		submitters = 8
		uniqueJobs = 24
	)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine submits every job, in a goroutine-specific
			// order, and waits on its own futures — every job ends up
			// with multiple concurrent waiters.
			for i := 0; i < uniqueJobs; i++ {
				j := (i + g*5) % uniqueJobs
				d := testDesc(fmt.Sprintf("stress-%d", j), 500)
				f := pool.Submit(Job{Desc: d, Run: func() (sim.Result, error) {
					return testResult(float64(j)), nil
				}})
				res, err := f.Wait()
				if err != nil {
					t.Errorf("job %d: %v", j, err)
					return
				}
				if res.IPC[0] != float64(j) {
					t.Errorf("job %d: wrong result %v", j, res.IPC[0])
				}
			}
		}(g)
	}
	wg.Wait()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}

	st := pool.Stats()
	if st.Submitted != submitters*uniqueJobs {
		t.Fatalf("submitted: want %d, got %d", submitters*uniqueJobs, st.Submitted)
	}
	if st.Unique != uniqueJobs || st.Ran+st.CacheHits != uniqueJobs {
		t.Fatalf("unique bookkeeping off: %+v", st)
	}
	if got := len(pool.Records()); got != uniqueJobs {
		t.Fatalf("records: want %d, got %d", uniqueJobs, got)
	}
	if progressCalls != uniqueJobs {
		t.Fatalf("progress calls: want %d, got %d", uniqueJobs, progressCalls)
	}
}

// TestPoolDapperHLockstepRace runs a DAPPER-H NRH sweep over each of
// two streams as a lockstep group on a two-worker pool. Under
// `go test -race` the two leads, their replay goroutines and any
// diverged point's solo run then take and put DAPPER-H tables and LLC
// arrays on the process-wide free list (internal/cache/spare), and
// fill and read DAPPER-H's shared group and partner memos, at once.
// Every Result must still equal an independent run's.
func TestPoolDapperHLockstepRace(t *testing.T) {
	geo := dram.Baseline()
	nrhs := []uint32{250, 1000, 4000, 16000}
	streams := []string{"429.mcf", "ycsb_a"}
	configOf := func(name string) func() (sim.Config, error) {
		return func() (sim.Config, error) {
			w, err := workloads.ByName(name)
			if err != nil {
				return sim.Config{}, err
			}
			return sim.Config{Geometry: geo, Traces: sim.BenignTraces(w, 4, geo, 1),
				Warmup: dram.US(2), Measure: dram.US(20)}, nil
		}
	}
	runOf := func(config func() (sim.Config, error), tracker sim.TrackerFactory) func() (sim.Result, error) {
		return func() (sim.Result, error) {
			cfg, err := config()
			if err != nil {
				return sim.Result{}, err
			}
			cfg.Tracker = tracker
			return sim.Run(cfg)
		}
	}
	pool := NewPool(Options{Workers: 2})
	var jobs []Job
	var futures []*Future
	for _, name := range streams {
		config := configOf(name)
		for _, nrh := range nrhs {
			tracker := func(ch int) rh.Tracker {
				d, err := core.NewDapperH(ch, core.Config{Geometry: geo, NRH: nrh})
				if err != nil {
					panic(err)
				}
				return d
			}
			job := Job{Desc: testDesc(name, nrh), Run: runOf(config, tracker),
				Stream: &Stream{Key: name, Config: config, Point: sim.BatchPoint{Tracker: tracker}}}
			jobs = append(jobs, job)
			futures = append(futures, pool.Submit(job))
		}
	}
	for i, f := range futures {
		got, err := f.Wait()
		if err != nil {
			t.Fatal(err)
		}
		want, err := jobs[i].Run()
		if err != nil {
			t.Fatal(err)
		}
		gotJS, _ := json.Marshal(got)
		wantJS, _ := json.Marshal(want)
		if !bytes.Equal(gotJS, wantJS) {
			t.Fatalf("%s: pooled result differs from an independent run:\n got  %s\n want %s", f.Desc(), gotJS, wantJS)
		}
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Lockstep == 0 {
		t.Fatalf("no point rode a lockstep group: %+v", st)
	}
}
