// Package nodeterm_core is a fixture playing a deterministic-core
// package (the core tier): wall clock, global rand, environment reads
// and goroutines are all findings.
package nodeterm_core

import (
	"math/rand"
	"os"
	"time"
)

func wallclock() time.Duration {
	start := time.Now()      // want `time\.Now in nodeterm_core: deterministic code must not read the wall clock`
	time.Sleep(1)            // want `time\.Sleep`
	return time.Since(start) // want `time\.Since`
}

func timers() {
	_ = time.NewTicker(1) // want `time\.NewTicker`
	_ = time.After(1)     // want `time\.After`
}

func methodValue() time.Time {
	now := time.Now // want `time\.Now in nodeterm_core`
	return now()
}

func durationArithmeticIsFine(d time.Duration) time.Duration {
	// Pure time.Duration math never reads a clock.
	return 2*d + time.Millisecond
}

func globalRand() int {
	r := rand.New(rand.NewSource(1)) // explicitly seeded generator: fine
	return r.Intn(8) + rand.Intn(8)  // want `global math/rand\.Intn: shared global rand state`
}

func seededIsFine(r *rand.Rand) int {
	// A type reference, and a local that shadows the package, are not
	// the global generator.
	rand := rand.New(rand.NewSource(int64(r.Intn(8))))
	return rand.Intn(8)
}

func shuffled(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `global math/rand\.Shuffle`
}

func env() string {
	return os.Getenv("DAPPER_DEBUG") // want `os\.Getenv in nodeterm_core: the environment is invisible to the Descriptor cache key`
}

func spawn() {
	go env() // want `goroutine spawned in deterministic core package`
}

// annotatedFunc measures elapsed time on purpose; the doc-comment
// annotation covers every site in the function.
//
//dapper:wallclock fixture: whole-function elapsed-time measurement
func annotatedFunc() time.Duration {
	start := time.Now()
	return time.Since(start)
}

func annotatedLine() time.Time {
	//dapper:wallclock fixture: single intentional wall-clock read
	return time.Now()
}

func annotatedSameLine() time.Time {
	return time.Now() //dapper:wallclock fixture: trailing annotation on the offending line
}

func annotatedWithoutJustification() time.Time {
	//dapper:wallclock
	return time.Now() // want `//dapper:wallclock annotation needs a one-line justification`
}

// envAnnotated shows that //dapper:env is no escape hatch: an
// environment read is always a finding.
func envAnnotated() string {
	//dapper:env fixture: opt-in debug knob, logged into the report header
	return os.Getenv("DAPPER_DEBUG") // want `os\.Getenv in nodeterm_core`
}
