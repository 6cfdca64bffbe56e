package start

import (
	"testing"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

// TestTickResetDoesNotAllocate pins the capacity-preserving reset: once
// the counter table and counter cache have reached steady-state size, a
// tREFW reset plus a full re-run of the same working set must not touch
// the allocator. Batched sweeps replay this cycle N times per point.
func TestTickResetDoesNotAllocate(t *testing.T) {
	tr := newTest()
	buf := make([]rh.Action, 0, 64)
	drive := func() {
		// A few hundred distinct rows: populates counts and churns the
		// counter cache (fetch + dirty write-back actions).
		for r := uint32(0); r < 300; r++ {
			buf = tr.OnActivate(dram.Cycle(r), loc(0, 0, int(r)%4, r), buf[:0])
			buf = tr.OnActivate(dram.Cycle(r)+1, loc(0, 0, int(r)%4, r), buf[:0])
		}
	}
	drive() // grow structures to steady state

	w := resetWindow
	cyc := w
	allocs := testing.AllocsPerRun(10, func() {
		cyc += w
		buf = tr.Tick(cyc, buf[:0])
		drive()
	})
	if allocs != 0 {
		t.Fatalf("tREFW reset + refill allocated %.1f times per run; want 0", allocs)
	}
}
