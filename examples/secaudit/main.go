// Secaudit example: attach the shadow security oracle to two runs —
// the insecure baseline and DAPPER-H — under the focused double-row
// hammer, and compare verdicts. The same machinery backs
// `dapper audit`'s conformance matrix; this is the in-process taste.
//
//	go run ./examples/secaudit
package main

import (
	"fmt"

	"dapper/internal/attack"
	"dapper/internal/core"
	"dapper/internal/dram"
	"dapper/internal/rh"
	"dapper/internal/secaudit"
	"dapper/internal/sim"
	"dapper/internal/workloads"
)

func main() {
	const nrh = 125
	geo := dram.Baseline()
	w, err := workloads.ByName("429.mcf")
	if err != nil {
		panic(err)
	}

	// The focused hammer: the refresh attack's row pair concentrated on
	// 8 banks, so each hot row is re-activated at the tRC limit — fast
	// enough to cross NRH inside a short window when nothing mitigates.
	hammer := attack.Params{Steady: attack.Pattern{
		HotFrac: 1, HotRows: 2, HotBase: 7, HotStride: 996, Banks: 8,
	}}

	run := func(name string, tracker sim.TrackerFactory) *secaudit.Report {
		atk, err := attack.NewTrace(attack.Config{
			Geometry: geo, NRH: nrh, Kind: attack.Parametric, Params: hammer, Seed: 1,
		})
		if err != nil {
			panic(err)
		}
		// The oracle is an rh.Sink factory handed to sim.Config: it
		// folds the ACT/mitigation/refresh events of every controller's
		// one event stream and never influences the simulation.
		audit := secaudit.MustNew(secaudit.Config{Geometry: geo, NRH: nrh, Mode: rh.VRR1})
		cfg := sim.Config{
			Geometry: geo,
			Traces:   append(sim.BenignTraces(w, 3, geo, 1), atk),
			Warmup:   dram.US(5),
			Measure:  dram.US(30),
			Tracker:  tracker,
			Sink:     audit.Sink,
		}
		sim.MustRun(cfg)
		rep := audit.Report()
		fmt.Printf("%-10s %s  (acts=%d mitigations=%d)\n",
			name, rep.Summary(), rep.ACTs, rep.Mitigations)
		return rep
	}

	fmt.Printf("shadow oracle at NRH=%d under the focused hammer:\n\n", nrh)
	insecure := run("none", nil)
	run("dapper-h", func(ch int) rh.Tracker {
		d, err := core.NewDapperH(ch, core.Config{Geometry: geo, NRH: nrh})
		if err != nil {
			panic(err)
		}
		return d
	})

	// The worst escapes: which rows crossed the threshold, and when.
	fmt.Println("\nfirst escapes on the insecure baseline:")
	for i, e := range insecure.Worst {
		if i == 4 {
			fmt.Printf("  ... %d more\n", len(insecure.Worst)-4)
			break
		}
		fmt.Printf("  ch%d rank%d bg%d bank%d row %-5d reached %d at cycle %d\n",
			e.Channel, e.Rank, e.BankGroup, e.Bank, e.Row, e.Count, e.At)
	}
}
