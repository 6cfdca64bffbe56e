package harness

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"dapper/internal/sim"
)

// TestPoolBoundedDispatch pins the goroutine-per-job satellite: a
// large submitted backlog must park as queue entries, not goroutines.
// Before the bounded dispatcher, 10k submissions meant 10k parked
// goroutines; now the count stays O(workers).
func TestPoolBoundedDispatch(t *testing.T) {
	const (
		workers = 4
		backlog = 10000
	)
	release := make(chan struct{})
	pool := NewPool(Options{Workers: workers})
	base := runtime.NumGoroutine()
	for i := 0; i < backlog; i++ {
		i := i
		pool.Submit(Job{Desc: testDesc(fmt.Sprintf("bulk-%d", i), 500),
			Run: func() (sim.Result, error) {
				<-release
				return testResult(float64(i)), nil
			}})
	}
	// Dispatch starts at the first Wait: wait on one goroutine, give the
	// workers a moment to spin up and park on the release channel, then
	// measure.
	waited := make(chan struct{})
	go func() {
		pool.Wait()
		close(waited)
	}()
	time.Sleep(20 * time.Millisecond)
	if got := runtime.NumGoroutine(); got > base+workers+16 {
		t.Fatalf("goroutines = %d with a %d-job backlog (baseline %d, workers %d): dispatch is not bounded",
			got, backlog, base, workers)
	}
	close(release)
	<-waited
	if st := pool.Stats(); st.Ran != backlog {
		t.Fatalf("ran %d, want %d", st.Ran, backlog)
	}
}
