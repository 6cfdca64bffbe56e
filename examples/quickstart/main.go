// Quickstart: build a DAPPER-H tracker, feed it an activation stream,
// and watch it mitigate a hammered row while ignoring benign traffic.
// It exits 1 if the benign traffic is mitigated or the hammered row is
// not.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"dapper/internal/core"
	"dapper/internal/dram"
	"dapper/internal/rh"
)

func main() {
	// A DAPPER-H tracker for channel 0 of the paper's baseline system,
	// at the ultra-low RowHammer threshold the paper headlines.
	geo := dram.Baseline()
	cfg := core.Config{Geometry: geo, NRH: 500}
	tracker, err := core.NewDapperH(0, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("DAPPER-H: %d row groups/table/rank, NM=%d, %dKB SRAM per channel\n",
		cfg.NumGroups(), cfg.NM(), cfg.StorageBytesH()/1024)

	var buf []rh.Action
	now := dram.Cycle(0)
	act := func(loc dram.Loc) []rh.Action {
		buf = tracker.OnActivate(now, loc, buf[:0])
		now += dram.NS(48) // tRC-paced activations
		return buf
	}

	// Benign-looking traffic: thousands of scattered activations.
	for row := uint32(0); row < 4096; row++ {
		loc := dram.Loc{BankGroup: int(row) % 8, Bank: int(row/8) % 4, Row: row}
		if acts := act(loc); len(acts) > 0 {
			fail("unexpected mitigation on benign traffic (row %d)", row)
		}
	}
	fmt.Printf("after 4096 scattered activations: mitigations=%d (benign traffic is free)\n",
		tracker.Stats().Mitigations)

	// Now hammer one row well past the mitigation threshold.
	victim := dram.Loc{BankGroup: 3, Bank: 1, Row: 12345}
	mitigated := false
	for i := 0; i < 600 && !mitigated; i++ {
		acts := act(victim)
		if len(acts) == 0 {
			continue
		}
		fmt.Printf("activation %d: DAPPER-H refreshes %d shared row(s):\n", i+1, len(acts))
		for _, a := range acts {
			fmt.Printf("  victim refresh around row %d (bank group %d, bank %d) via %v\n",
				a.Row, a.Loc.BankGroup, a.Loc.Bank, a.Kind == rh.RefreshVictims)
			mitigated = mitigated || a.Loc == victim
		}
		if !mitigated {
			fail("the mitigation at activation %d does not refresh around the hammered row %d", i+1, victim.Row)
		}
	}
	if !mitigated {
		fail("600 activations of row %d were never mitigated", victim.Row)
	}

	st := tracker.Stats()
	fmt.Printf("totals: activations=%d mitigations=%d victim refreshes=%d\n",
		st.Activations, st.Mitigations, st.VictimRefreshes)
	fmt.Printf("single-shared-row mitigations: %.1f%% (paper: 99.9%%)\n",
		tracker.SingleSharedFraction()*100)
}

// fail reports a broken expectation and exits 1.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "quickstart: "+format+"\n", args...)
	os.Exit(1)
}
