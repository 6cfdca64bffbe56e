package exp

import (
	"fmt"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/workloads"
)

// perfAttackScenarios returns the Figures 1/3/4/5 configurations: the
// cache-thrashing reference on the insecure system, then the four
// scalable baseline trackers under their tailored Perf-Attacks.
func perfAttackScenarios() []scenario {
	scs := []scenario{{name: "Cache Thrashing", tracker: "none", kind: attack.CacheThrash}}
	for _, id := range []string{"hydra", "start", "abacus", "comet"} {
		name := trackerDefs[id].name
		scs = append(scs, scenario{name: name, tracker: id, kind: attack.ForTracker(name)})
	}
	return scs
}

// suiteRows lays out Figures 1 and 9: one row per suite present in the
// profile's workloads, then "All", each cell a statistic over the
// suite's points of one scenario.
func (p Profile) suiteRows(f *figure, scs []scenario, dapper bool, value func([]point) cell) {
	for _, suite := range append(workloads.Suites(), "All") {
		ws := p.Workloads
		if suite != "All" {
			ws = workloads.BySuite(ws, suite)
		}
		if len(ws) == 0 {
			continue
		}
		row := []cell{{text: fmt.Sprintf("%s (%d)", suite, len(ws))}}
		for _, sc := range scs {
			row = append(row, value(p.points(ws, sc, p.NRH, p.NRH, dapper)))
		}
		f.rows = append(f.rows, row)
	}
}

// workloadRows lays out Figures 3/10/11: one row per workload (name,
// memory-intensity mark) with each scenario's normalized perf at the
// profile's NRH.
func (p Profile) workloadRows(f *figure, ws []workloads.Workload, scs []scenario, dapper bool) {
	f.header = []string{"Workload", "MI"}
	for _, sc := range scs {
		f.header = append(f.header, sc.name)
	}
	for i, w := range ws {
		mi := ""
		if w.MemoryIntensive() {
			mi = "*"
		}
		row := []cell{{text: w.Name}, {text: mi}}
		for _, sc := range scs {
			row = append(row, meanPerf(p.points(ws[i:i+1], sc, p.NRH, p.NRH, dapper)))
		}
		f.rows = append(f.rows, row)
	}
}

// sweep lays out an NRH-sweep figure: one row per scenario, one column
// per threshold of the sweep, each cell the sweep set's mean normalized
// perf with every baseline at the sweep's first threshold.
func (p Profile) sweep(title, first, note string, scs []scenario, dapper bool) figure {
	f := figure{title: title, header: []string{first}, notes: []string{note}}
	for _, nrh := range p.NRHSweep {
		f.header = append(f.header, fmt.Sprintf("NRH=%d", nrh))
	}
	for _, sc := range scs {
		row := []cell{{text: sc.name}}
		for _, nrh := range p.NRHSweep {
			row = append(row, meanPerf(p.points(p.SweepWorkloads, sc, nrh, p.NRHSweep[0], dapper)))
		}
		f.rows = append(f.rows, row)
	}
	return f
}

// fig1 reproduces Figure 1: normalized performance per suite under
// cache thrashing and tailored RH-Tracker Perf-Attacks at NRH=500.
func fig1(p Profile) (figure, error) {
	scs := perfAttackScenarios()
	f := figure{
		title:  fmt.Sprintf("Normalized perf under Perf-Attacks, NRH=%d (suite means)", p.NRH),
		header: []string{"Suite (n)"},
		notes:  []string{"paper: thrashing ~0.60; Hydra ~0.39; START ~0.35; ABACUS ~0.28; CoMeT ~0.10 (all-57 means)"},
	}
	for _, sc := range scs {
		f.header = append(f.header, sc.name)
	}
	p.suiteRows(&f, scs, false, meanPerf)
	return f, nil
}

// fig3 reproduces Figure 3: the same data per workload, memory-intensive
// (>=2 RBMPKI) group first.
func fig3(p Profile) (figure, error) {
	f := figure{
		title: fmt.Sprintf("Normalized perf per workload under Perf-Attacks, NRH=%d", p.NRH),
		notes: []string{"MI * = >=2 row-buffer misses per kilo-instruction; paper: worst cases 510.parest 0.09 (START), avg drops 60-90%"},
	}
	var mi, rest []workloads.Workload
	for _, w := range p.Workloads {
		if w.MemoryIntensive() {
			mi = append(mi, w)
		} else {
			rest = append(rest, w)
		}
	}
	p.workloadRows(&f, append(mi, rest...), perfAttackScenarios(), false)
	return f, nil
}

// fig4 reproduces Figure 4: sensitivity to NRH for the scalable
// mitigations under tailored attacks (sweep-workload means).
func fig4(p Profile) (figure, error) {
	return p.sweep("Attack sensitivity to RowHammer threshold (sweep-set means)", "Config",
		"paper: even at NRH=4K the scalable trackers lose 46-71% vs 41% for thrashing",
		perfAttackScenarios(), false), nil
}

// fig5 reproduces Figure 5: sensitivity to per-core LLC size with eight
// memory channels at NRH=500.
func fig5(p Profile) (figure, error) {
	// Eight channels, four ranks each (512GB total in the paper).
	geo := p.Geometry
	geo.Channels = 8
	geo.Ranks = 4
	f := figure{
		title:  "Attack sensitivity to per-core LLC size (8 channels, NRH=500)",
		header: []string{"Config"},
		notes:  []string{"paper: 30-79% drops even at 5MB/core vs ~20% for thrashing"},
	}
	sizes := []int{2, 3, 4, 5} // MB per core
	if p.Name == "quick" || p.Name == "tiny" {
		sizes = []int{2, 4}
	}
	for _, mb := range sizes {
		f.header = append(f.header, fmt.Sprintf("%dMB/core", mb))
	}
	for _, sc := range perfAttackScenarios() {
		row := []cell{{text: sc.name}}
		for _, mb := range sizes {
			var pts []point
			for _, w := range p.SweepWorkloads {
				run := p.perfAttackRun(w, sc.tracker, sc.kind, p.NRH)
				run.Geometry = geo
				run.LLCBytes = mb << 20 * 4 // per-core x 4 cores
				pts = append(pts, pair(run, p.NRH, false))
			}
			row = append(row, meanPerf(pts))
		}
		f.rows = append(f.rows, row)
	}
	return f, nil
}

// tab1 prints the Table I system configuration actually used.
func tab1(p Profile) (figure, error) {
	g := p.Geometry
	tm := dram.DDR5()
	f := figure{title: "System configuration (Table I)", header: []string{"Parameter", "Value"}}
	f.addText("Processor", "4 cores (OoO), 4GHz, 4-wide, 128-entry ROB")
	f.addText("Last-Level Cache", "8MB shared, 16-way, 64B lines")
	f.addText("Memory", fmt.Sprintf("%dGB DDR5 (%s)", g.TotalBytes()>>30, g.String()))
	f.addText("tRCD-tRP-tCL", "16-16-16 ns")
	f.addText("tRC, tRFC, tREFI, tREFW", fmt.Sprintf("%dns, %dns, %.1fus, %dms",
		tm.TRC/dram.CyclesPerNs, tm.TRFC/dram.CyclesPerNs,
		float64(tm.TREFI)/float64(dram.US(1)), tm.TREFW/dram.MS(1)))
	f.addText("Mitigation commands", fmt.Sprintf("VRR-BR1 %dns, VRR-BR2 %dns, RFMsb %dns, DRFMsb %dns",
		tm.TVRR1/dram.CyclesPerNs, tm.TVRR2/dram.CyclesPerNs,
		tm.TRFMsb/dram.CyclesPerNs, tm.TDRFMsb/dram.CyclesPerNs))
	f.addText("Default NRH", fmt.Sprintf("%d (NM = %d)", p.NRH, p.NRH/2))
	return f, nil
}
