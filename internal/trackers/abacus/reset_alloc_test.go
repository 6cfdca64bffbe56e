package abacus

import (
	"testing"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

// TestTickResetDoesNotAllocate pins the capacity-preserving reset: once
// the Misra-Gries table and the bank bit-vectors have reached their
// steady-state size, a tREFW reset plus a full re-run of the same
// working set must not touch the allocator. Batched sweeps replay this
// cycle N times per point.
func TestTickResetDoesNotAllocate(t *testing.T) {
	tr := newTest(4000)
	buf := make([]rh.Action, 0, 256)
	drive := func() {
		// More distinct rows than table entries (309): exercises insert,
		// replacement, spillover rebuild, and the bit-vector filter.
		for r := uint32(0); r < 400; r++ {
			for j := 0; j < 3; j++ {
				buf = tr.OnActivate(dram.Cycle(r)*4+dram.Cycle(j), loc(0, 0, 0, r), buf[:0])
			}
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
