package exp

import (
	"fmt"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/stats"
	"dapper/internal/workloads"
)

// perfAttackConfig is one Figures 1/3/4/5 configuration: the
// cache-thrashing reference on the insecure system, or a scalable
// tracker under its tailored Perf-Attack.
type perfAttackConfig struct {
	name, tracker string
	kind          attack.Kind
}

// perfAttackConfigs returns the cache-thrashing reference followed by
// the four scalable baseline trackers.
func perfAttackConfigs() []perfAttackConfig {
	cfgs := []perfAttackConfig{{"Cache Thrashing", "none", attack.CacheThrash}}
	for _, id := range []string{"hydra", "start", "abacus", "comet"} {
		name := trackerDefs[id].name
		cfgs = append(cfgs, perfAttackConfig{name, id, attack.ForTracker(name)})
	}
	return cfgs
}

// perfAttackMatrix runs the Figure 1/3 data set: for every workload,
// each perfAttackConfig normalized to the insecure baseline with an
// idle companion. Returned map: config name -> workload name ->
// normalized perf.
func perfAttackMatrix(r *runner, nrh uint32) (map[string]map[string]float64, []string, error) {
	cfgs := perfAttackConfigs()
	out := make(map[string]map[string]float64, len(cfgs))
	var names []string
	for _, c := range cfgs {
		out[c.name] = make(map[string]float64)
		names = append(names, c.name)
	}
	for _, w := range r.p.Workloads {
		for _, c := range cfgs {
			np, _, _, err := r.normalized(r.p.perfAttackRun(w, c.tracker, c.kind, nrh), false)
			if err != nil {
				return nil, nil, err
			}
			out[c.name][w.Name] = np
		}
	}
	return out, names, nil
}

// Fig1 reproduces Figure 1: normalized performance per suite under
// cache thrashing and tailored RH-Tracker Perf-Attacks at NRH=500.
func Fig1(p Profile) (*Table, error) {
	r := newRunner(p)
	matrix, configs, err := perfAttackMatrix(r, p.NRH)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig1",
		Title:  fmt.Sprintf("Normalized perf under Perf-Attacks, NRH=%d (suite means)", p.NRH),
		Header: append([]string{"Suite (n)"}, configs...),
	}
	suites := append(workloads.Suites(), "All")
	for _, suite := range suites {
		var ws []workloads.Workload
		if suite == "All" {
			ws = p.Workloads
		} else {
			for _, w := range p.Workloads {
				if w.Suite == suite {
					ws = append(ws, w)
				}
			}
		}
		if len(ws) == 0 {
			continue
		}
		row := []string{fmt.Sprintf("%s (%d)", suite, len(ws))}
		for _, c := range configs {
			var vals []float64
			for _, w := range ws {
				vals = append(vals, matrix[c][w.Name])
			}
			row = append(row, norm(stats.Mean(vals)))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: thrashing ~0.60; Hydra ~0.39; START ~0.35; ABACUS ~0.28; CoMeT ~0.10 (all-57 means)")
	return t, nil
}

// Fig3 reproduces Figure 3: the same data per workload, memory-intensive
// (>=2 RBMPKI) group first.
func Fig3(p Profile) (*Table, error) {
	r := newRunner(p)
	matrix, configs, err := perfAttackMatrix(r, p.NRH)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig3",
		Title:  fmt.Sprintf("Normalized perf per workload under Perf-Attacks, NRH=%d", p.NRH),
		Header: append([]string{"Workload", "MI"}, configs...),
	}
	emit := func(w workloads.Workload) {
		mi := ""
		if w.MemoryIntensive() {
			mi = "*"
		}
		row := []string{w.Name, mi}
		for _, c := range configs {
			row = append(row, norm(matrix[c][w.Name]))
		}
		t.AddRow(row...)
	}
	for _, w := range p.Workloads {
		if w.MemoryIntensive() {
			emit(w)
		}
	}
	for _, w := range p.Workloads {
		if !w.MemoryIntensive() {
			emit(w)
		}
	}
	t.AddNote("MI * = >=2 row-buffer misses per kilo-instruction; paper: worst cases 510.parest 0.09 (START), avg drops 60-90%%")
	return t, nil
}

// Fig4 reproduces Figure 4: sensitivity to NRH for the scalable
// mitigations under tailored attacks (sweep-workload means).
func Fig4(p Profile) (*Table, error) {
	r := newRunner(p)
	t := &Table{
		ID:     "fig4",
		Title:  "Attack sensitivity to RowHammer threshold (sweep-set means)",
		Header: []string{"Config"},
	}
	sweep := p.NRHSweep
	for _, nrh := range sweep {
		t.Header = append(t.Header, fmt.Sprintf("NRH=%d", nrh))
	}
	for _, c := range perfAttackConfigs() {
		row := []string{c.name}
		for _, nrh := range sweep {
			var vals []float64
			for _, w := range p.SweepWorkloads {
				np, _, _, err := r.normalized(p.perfAttackRun(w, c.tracker, c.kind, nrh), false)
				if err != nil {
					return nil, err
				}
				vals = append(vals, np)
			}
			row = append(row, norm(stats.Mean(vals)))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: even at NRH=4K the scalable trackers lose 46-71%% vs 41%% for thrashing")
	return t, nil
}

// Fig5 reproduces Figure 5: sensitivity to per-core LLC size with eight
// memory channels at NRH=500.
func Fig5(p Profile) (*Table, error) {
	// Eight channels, four ranks each (512GB total in the paper).
	geo := p.Geometry
	geo.Channels = 8
	geo.Ranks = 4
	r := newRunner(p)
	t := &Table{
		ID:     "fig5",
		Title:  "Attack sensitivity to per-core LLC size (8 channels, NRH=500)",
		Header: []string{"Config"},
	}
	sizes := []int{2, 3, 4, 5} // MB per core
	if p.Name == "quick" || p.Name == "tiny" {
		sizes = []int{2, 4}
	}
	for _, mb := range sizes {
		t.Header = append(t.Header, fmt.Sprintf("%dMB/core", mb))
	}
	for _, c := range perfAttackConfigs() {
		row := []string{c.name}
		for _, mb := range sizes {
			var vals []float64
			for _, w := range p.SweepWorkloads {
				run := p.perfAttackRun(w, c.tracker, c.kind, p.NRH)
				run.Geometry = geo
				run.LLCBytes = mb << 20 * 4 // per-core x 4 cores
				np, _, _, err := r.normalized(run, false)
				if err != nil {
					return nil, err
				}
				vals = append(vals, np)
			}
			row = append(row, norm(stats.Mean(vals)))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: 30-79%% drops even at 5MB/core vs ~20%% for thrashing")
	return t, nil
}

// Tab1 prints the Table I system configuration actually used.
func Tab1(p Profile) (*Table, error) {
	g := p.Geometry
	tm := dram.DDR5()
	t := &Table{
		ID:     "tab1",
		Title:  "System configuration (Table I)",
		Header: []string{"Parameter", "Value"},
	}
	t.AddRow("Processor", "4 cores (OoO), 4GHz, 4-wide, 128-entry ROB")
	t.AddRow("Last-Level Cache", "8MB shared, 16-way, 64B lines")
	t.AddRow("Memory", fmt.Sprintf("%dGB DDR5 (%s)", g.TotalBytes()>>30, g.String()))
	t.AddRow("tRCD-tRP-tCL", "16-16-16 ns")
	t.AddRow("tRC, tRFC, tREFI, tREFW", fmt.Sprintf("%dns, %dns, %.1fus, %dms",
		tm.TRC/dram.CyclesPerNs, tm.TRFC/dram.CyclesPerNs,
		float64(tm.TREFI)/float64(dram.US(1)), tm.TREFW/dram.MS(1)))
	t.AddRow("Mitigation commands", fmt.Sprintf("VRR-BR1 %dns, VRR-BR2 %dns, RFMsb %dns, DRFMsb %dns",
		tm.TVRR1/dram.CyclesPerNs, tm.TVRR2/dram.CyclesPerNs,
		tm.TRFMsb/dram.CyclesPerNs, tm.TDRFMsb/dram.CyclesPerNs))
	t.AddRow("Default NRH", fmt.Sprintf("%d (NM = %d)", p.NRH, p.NRH/2))
	return t, nil
}
