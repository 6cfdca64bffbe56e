package harness

import (
	"fmt"
	"sync"
	"testing"

	"dapper/internal/sim"
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
