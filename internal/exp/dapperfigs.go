package exp

import (
	"fmt"

	"dapper/internal/attack"
	"dapper/internal/rh"
	"dapper/internal/stats"
)

// fig9 reproduces Figure 9: DAPPER-S under the two Mapping-Agnostic
// attacks (streaming, refresh), per suite.
func fig9(p Profile) (figure, error) {
	f := figure{
		title:  fmt.Sprintf("DAPPER-S slowdown under Mapping-Agnostic attacks, NRH=%d", p.NRH),
		header: []string{"Suite (n)", "Streaming", "Refresh"},
		notes:  []string{"paper: streaming ~13%, refresh ~20% (all-57 means); attacks must hurt S but not H (fig10)"},
	}
	p.suiteRows(&f, []scenario{
		{tracker: "dapper-s", kind: attack.StreamingSweep},
		{tracker: "dapper-s", kind: attack.Refresh},
	}, true, func(pts []point) cell { return stat(pts, slowdown, stats.Mean, pct) })
	return f, nil
}

// perWorkload lays out Figures 10/11: one row per workload, then the
// mean and the max slowdown over all of them.
func (p Profile) perWorkload(title, note string, scs []scenario) figure {
	f := figure{title: title, notes: []string{note}}
	p.workloadRows(&f, p.Workloads, scs, true)
	mean := []cell{{text: "MEAN SLOWDOWN"}, {}}
	max := []cell{{text: "MAX SLOWDOWN"}, {}}
	for _, sc := range scs {
		pts := p.points(p.Workloads, sc, p.NRH, p.NRH, true)
		mean = append(mean, stat(pts, slowdown, stats.Mean, pct))
		max = append(max, stat(pts, slowdown, stats.Max, pct))
	}
	f.rows = append(f.rows, mean, max)
	return f
}

// fig10 reproduces Figure 10: DAPPER-H under streaming and refresh
// attacks, per workload.
func fig10(p Profile) (figure, error) {
	return p.perWorkload(fmt.Sprintf("DAPPER-H normalized perf under Mapping-Agnostic attacks, NRH=%d", p.NRH),
		"paper: <1% average; max 4.7% (streaming), 2.3% (refresh)",
		[]scenario{
			{name: "Streaming", tracker: "dapper-h", kind: attack.StreamingSweep},
			{name: "Refresh", tracker: "dapper-h", kind: attack.Refresh},
		}), nil
}

// fig11 reproduces Figure 11: DAPPER-H on benign applications (four
// homogeneous copies), per workload.
func fig11(p Profile) (figure, error) {
	return p.perWorkload(fmt.Sprintf("DAPPER-H on benign applications, NRH=%d", p.NRH),
		"paper: 0.1% average, max 4.4% (429.mcf)",
		[]scenario{{name: "Normalized perf", tracker: "dapper-h", benign4: true}}), nil
}

// fig12 reproduces Figure 12: DAPPER-H sensitivity to NRH under benign,
// streaming, and refresh scenarios.
func fig12(p Profile) (figure, error) {
	return p.sweep("DAPPER-H sensitivity to RowHammer threshold", "Scenario",
		"paper: <1% slowdown at NRH>=500; up to 6% at NRH=125 under the refresh attack",
		[]scenario{
			{"DAPPER-H (benign)", "dapper-h", rh.VRR1, attack.None, true},
			{"DAPPER-H-Streaming", "dapper-h", rh.VRR1, attack.StreamingSweep, false},
			{"DAPPER-H-Refresh", "dapper-h", rh.VRR1, attack.Refresh, false},
		}, true), nil
}

// fig13 reproduces Figure 13: blast radius (BR1 vs BR2) and DRFMsb,
// benign and refresh-attack scenarios, across the sweep.
func fig13(p Profile) (figure, error) {
	var scs []scenario
	for _, sc := range []scenario{{kind: attack.None, benign4: true}, {name: "-Refresh", kind: attack.Refresh}} {
		for _, m := range []struct {
			name string
			mode rh.MitigationMode
		}{{"DAPPER-H", rh.VRR1}, {"DAPPER-H-BR2", rh.VRR2}, {"DAPPER-H-DRFMsb", rh.DRFMsb}} {
			scs = append(scs, scenario{m.name + sc.name, "dapper-h", m.mode, sc.kind, sc.benign4})
		}
	}
	return p.sweep("DAPPER-H blast radius and DRFMsb sensitivity", "Config",
		"paper: at NRH=500 under refresh, BR1 ~1%, BR2 ~2%, DRFMsb ~8%; DRFMsb grows to 27% at NRH=125",
		scs, true), nil
}

// tab4 reproduces Table IV: DAPPER-H energy overhead across the sweep
// for benign / streaming / refresh scenarios.
func tab4(p Profile) (figure, error) {
	f := figure{
		title:  "DAPPER-H energy overhead (vs insecure baseline)",
		header: []string{"NRH", "Benign", "Streaming Attack", "Refresh Attack"},
		notes: []string{
			"paper at NRH=500: benign 0.1%, streaming 0.2%, refresh 1.1%; at 125: 4.5/7.0/7.5%",
			"overhead = mitigation-operation energy (victim/bulk refreshes, counter traffic) over baseline total energy",
		},
	}
	for _, nrh := range p.NRHSweep {
		row := []cell{{text: fmt.Sprintf("%d", nrh)}}
		for _, sc := range []scenario{
			{tracker: "dapper-h", kind: attack.None, benign4: true},
			{tracker: "dapper-h", kind: attack.StreamingSweep},
			{tracker: "dapper-h", kind: attack.Refresh},
		} {
			row = append(row, stat(p.points(p.SweepWorkloads, sc, nrh, p.NRHSweep[0], true), energyOverhead, stats.Mean, pct))
		}
		f.rows = append(f.rows, row)
	}
	return f, nil
}
