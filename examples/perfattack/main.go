// Perf-Attack demo: co-run a memory-intensive benign workload with the
// tailored Performance Attack against each tracker and compare the
// benign cores' normalized performance — a miniature of the paper's
// Figure 1.
//
//	go run ./examples/perfattack
package main

import (
	"fmt"

	"dapper/internal/attack"
	"dapper/internal/core"
	"dapper/internal/dram"
	"dapper/internal/rh"
	"dapper/internal/sim"
	"dapper/internal/trackers/comet"
	"dapper/internal/trackers/hydra"
	"dapper/internal/workloads"
)

func main() {
	const nrh = 500
	geo := dram.Baseline()
	w, err := workloads.ByName("429.mcf")
	if err != nil {
		panic(err)
	}
	fmt.Printf("3 copies of %s + 1 attacker, NRH=%d\n\n", w.Name, nrh)

	runCfg := func(factory sim.TrackerFactory, kind attack.Kind) sim.Result {
		traces := sim.BenignTraces(w, 3, geo, 1)
		traces = append(traces, attack.MustTrace(attack.Config{Geometry: geo, NRH: nrh, Kind: kind}))
		cfg := sim.Config{
			Geometry: geo,
			Traces:   traces,
			Warmup:   dram.US(100),
			Measure:  dram.US(300),
		}
		if factory != nil {
			cfg.Tracker = factory
		}
		return sim.MustRun(cfg)
	}

	base := runCfg(nil, attack.None)
	fmt.Printf("%-28s %-9s %s\n", "configuration", "norm perf", "notes")

	thrash := runCfg(nil, attack.CacheThrash)
	fmt.Printf("%-28s %-9.3f cache thrashing, no tracker\n",
		"insecure + thrash", sim.NormalizedPerf(thrash, base, sim.BenignCores(4)))

	hy := runCfg(func(ch int) rh.Tracker {
		return hydra.New(ch, geo, nrh)
	}, attack.HydraConflict)
	fmt.Printf("%-28s %-9.3f RCC thrash: %d counter reads, %d writes\n",
		"Hydra + tailored attack", sim.NormalizedPerf(hy, base, sim.BenignCores(4)),
		hy.Counters.InjRD, hy.Counters.InjWR)

	cm := runCfg(func(ch int) rh.Tracker {
		return comet.New(ch, geo, nrh)
	}, attack.RATThrash)
	fmt.Printf("%-28s %-9.3f RAT thrash: %d mitigations; early resets block 2.4ms each\n",
		"CoMeT + tailored attack", sim.NormalizedPerf(cm, base, sim.BenignCores(4)),
		cm.Tracker.Mitigations)

	dh := runCfg(func(ch int) rh.Tracker {
		d, err := core.NewDapperH(ch, core.Config{Geometry: geo, NRH: nrh})
		if err != nil {
			panic(err)
		}
		return d
	}, attack.Refresh)
	// DAPPER is judged against the insecure system running the SAME
	// attacker: the tracker should add (almost) nothing.
	baseRefresh := runCfg(nil, attack.Refresh)
	fmt.Printf("%-28s %-9.3f vs insecure+same attacker: %d mitigations\n",
		"DAPPER-H + refresh attack", sim.NormalizedPerf(dh, baseRefresh, sim.BenignCores(4)),
		dh.Tracker.Mitigations)
}
