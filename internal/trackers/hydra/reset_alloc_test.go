package hydra

import (
	"testing"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

// TestTickResetDoesNotAllocate pins the capacity-preserving reset: once
// the tracker's structures have grown to their steady-state size, a
// tREFW reset plus a full re-run of the same working set must not touch
// the allocator. Batched sweeps replay this cycle N times per point.
func TestTickResetDoesNotAllocate(t *testing.T) {
	tr := newTest()
	buf := make([]rh.Action, 0, 64)
	l := loc(0, 0, 0, 100)
	drive := func() {
		// Cross NGC (group -> per-row transition) and NM (mitigation),
		// exercising the GCT, RCC, and RCT paths.
		for i := 0; i < 300; i++ {
			buf = tr.OnActivate(dram.Cycle(i), l, buf[:0])
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
