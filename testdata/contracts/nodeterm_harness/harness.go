// Package nodeterm_harness is a fixture playing an orchestration
// package (the harness tier): goroutines are its whole point and pass,
// but unannotated wall-clock reads and any environment access still
// fail.
package nodeterm_harness

import (
	"os"
	"time"
)

func pool() {
	go worker()    // harness tier: goroutines allowed
	_ = time.Now() // want `time\.Now in nodeterm_harness`
}

func worker() {
	_ = os.Getenv("HOME") // want `os\.Getenv in nodeterm_harness`
}

// execute measures each job's elapsed wall time for the trace lanes.
//
//dapper:wallclock fixture: job timing for trace spans only
func execute(job func()) time.Duration {
	start := time.Now()
	job()
	return time.Since(start)
}
