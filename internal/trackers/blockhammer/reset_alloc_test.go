package blockhammer

import (
	"testing"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

// TestTickResetDoesNotAllocate pins the capacity-preserving reset: once
// the pacing table has reached steady-state size, an epoch rotation plus
// a full re-run of the same working set must not touch the allocator.
// Batched sweeps replay this cycle N times per point.
func TestTickResetDoesNotAllocate(t *testing.T) {
	tr := newTest(500)
	buf := make([]rh.Action, 0, 8)
	l := loc(0, 0, 0, 7)
	drive := func() {
		// Hammer one row past NBL so the pacing table gets populated, and
		// consult the throttle query path too.
		for i := 0; i < 300; i++ {
			buf = tr.OnActivate(dram.Cycle(i), l, buf[:0])
			tr.NextAllowed(dram.Cycle(i), l)
		}
	}
	drive() // grow structures to steady state

	epoch := window / 2
	cyc := epoch
	allocs := testing.AllocsPerRun(10, func() {
		cyc += epoch
		buf = tr.Tick(cyc, buf[:0])
		drive()
	})
	if allocs != 0 {
		t.Fatalf("epoch reset + refill allocated %.1f times per run; want 0", allocs)
	}
}
