package exp

import (
	"fmt"

	"dapper/internal/attack"
	"dapper/internal/energy"
	"dapper/internal/rh"
	"dapper/internal/stats"
	"dapper/internal/workloads"
)

// Fig9 reproduces Figure 9: DAPPER-S under the two Mapping-Agnostic
// attacks (streaming, refresh), per suite.
func Fig9(p Profile) (*Table, error) {
	r := newRunner(p)
	t := &Table{
		ID:     "fig9",
		Title:  fmt.Sprintf("DAPPER-S slowdown under Mapping-Agnostic attacks, NRH=%d", p.NRH),
		Header: []string{"Suite (n)", "Streaming", "Refresh"},
	}
	stream := map[string]float64{}
	refr := map[string]float64{}
	for _, w := range p.Workloads {
		np, _, _, err := r.dapperNormalized(w, "dapper-s", rh.VRR1, attack.StreamingSweep, p.NRH, false)
		if err != nil {
			return nil, err
		}
		stream[w.Name] = np
		np, _, _, err = r.dapperNormalized(w, "dapper-s", rh.VRR1, attack.Refresh, p.NRH, false)
		if err != nil {
			return nil, err
		}
		refr[w.Name] = np
	}
	for _, suite := range append(workloads.Suites(), "All") {
		ws := p.Workloads
		if suite != "All" {
			ws = workloads.BySuite(ws, suite)
		}
		if len(ws) == 0 {
			continue
		}
		var s, f []float64
		for _, w := range ws {
			s = append(s, stats.Slowdown(stream[w.Name]))
			f = append(f, stats.Slowdown(refr[w.Name]))
		}
		t.AddRow(fmt.Sprintf("%s (%d)", suite, len(ws)), pct(stats.Mean(s)), pct(stats.Mean(f)))
	}
	t.AddNote("paper: streaming ~13%%, refresh ~20%% (all-57 means); attacks must hurt S but not H (fig10)")
	return t, nil
}

// Fig10 reproduces Figure 10: DAPPER-H under streaming and refresh
// attacks, per workload.
func Fig10(p Profile) (*Table, error) {
	r := newRunner(p)
	t := &Table{
		ID:     "fig10",
		Title:  fmt.Sprintf("DAPPER-H normalized perf under Mapping-Agnostic attacks, NRH=%d", p.NRH),
		Header: []string{"Workload", "MI", "Streaming", "Refresh"},
	}
	var sAll, fAll []float64
	for _, w := range p.Workloads {
		sNP, _, _, err := r.dapperNormalized(w, "dapper-h", rh.VRR1, attack.StreamingSweep, p.NRH, false)
		if err != nil {
			return nil, err
		}
		fNP, _, _, err := r.dapperNormalized(w, "dapper-h", rh.VRR1, attack.Refresh, p.NRH, false)
		if err != nil {
			return nil, err
		}
		mi := ""
		if w.MemoryIntensive() {
			mi = "*"
		}
		t.AddRow(w.Name, mi, norm(sNP), norm(fNP))
		sAll = append(sAll, stats.Slowdown(sNP))
		fAll = append(fAll, stats.Slowdown(fNP))
	}
	t.AddRow("MEAN SLOWDOWN", "", pct(stats.Mean(sAll)), pct(stats.Mean(fAll)))
	t.AddRow("MAX SLOWDOWN", "", pct(stats.Max(sAll)), pct(stats.Max(fAll)))
	t.AddNote("paper: <1%% average; max 4.7%% (streaming), 2.3%% (refresh)")
	return t, nil
}

// Fig11 reproduces Figure 11: DAPPER-H on benign applications (four
// homogeneous copies), per workload.
func Fig11(p Profile) (*Table, error) {
	r := newRunner(p)
	t := &Table{
		ID:     "fig11",
		Title:  fmt.Sprintf("DAPPER-H on benign applications, NRH=%d", p.NRH),
		Header: []string{"Workload", "MI", "Normalized perf"},
	}
	var all []float64
	for _, w := range p.Workloads {
		run := p.perfAttackRun(w, "dapper-h", attack.None, p.NRH)
		run.Benign4 = true
		np, _, _, err := r.normalized(run, false)
		if err != nil {
			return nil, err
		}
		mi := ""
		if w.MemoryIntensive() {
			mi = "*"
		}
		t.AddRow(w.Name, mi, norm(np))
		all = append(all, stats.Slowdown(np))
	}
	t.AddRow("MEAN SLOWDOWN", "", pct(stats.Mean(all)))
	t.AddRow("MAX SLOWDOWN", "", pct(stats.Max(all)))
	t.AddNote("paper: 0.1%% average, max 4.4%% (429.mcf)")
	return t, nil
}

// Fig12 reproduces Figure 12: DAPPER-H sensitivity to NRH under benign,
// streaming, and refresh scenarios.
func Fig12(p Profile) (*Table, error) {
	r := newRunner(p)
	t := &Table{
		ID:     "fig12",
		Title:  "DAPPER-H sensitivity to RowHammer threshold",
		Header: []string{"Scenario"},
	}
	sweepHeader(t, p)
	err := addSweepRows(t, r, []sweepScenario{
		{"DAPPER-H (benign)", "dapper-h", rh.VRR1, attack.None, true},
		{"DAPPER-H-Streaming", "dapper-h", rh.VRR1, attack.StreamingSweep, false},
		{"DAPPER-H-Refresh", "dapper-h", rh.VRR1, attack.Refresh, false},
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("paper: <1%% slowdown at NRH>=500; up to 6%% at NRH=125 under the refresh attack")
	return t, nil
}

// Fig13 reproduces Figure 13: blast radius (BR1 vs BR2) and DRFMsb,
// benign and refresh-attack scenarios, across the sweep.
func Fig13(p Profile) (*Table, error) {
	r := newRunner(p)
	t := &Table{
		ID:     "fig13",
		Title:  "DAPPER-H blast radius and DRFMsb sensitivity",
		Header: []string{"Config"},
	}
	sweepHeader(t, p)
	var rows []sweepScenario
	for _, sc := range []struct {
		suffix  string
		kind    attack.Kind
		benign4 bool
	}{
		{"", attack.None, true},
		{"-Refresh", attack.Refresh, false},
	} {
		for _, m := range []struct {
			name string
			mode rh.MitigationMode
		}{
			{"DAPPER-H", rh.VRR1},
			{"DAPPER-H-BR2", rh.VRR2},
			{"DAPPER-H-DRFMsb", rh.DRFMsb},
		} {
			rows = append(rows, sweepScenario{m.name + sc.suffix, "dapper-h", m.mode, sc.kind, sc.benign4})
		}
	}
	if err := addSweepRows(t, r, rows); err != nil {
		return nil, err
	}
	t.AddNote("paper: at NRH=500 under refresh, BR1 ~1%%, BR2 ~2%%, DRFMsb ~8%%; DRFMsb grows to 27%% at NRH=125")
	return t, nil
}

// Tab4 reproduces Table IV: DAPPER-H energy overhead across the sweep
// for benign / streaming / refresh scenarios.
func Tab4(p Profile) (*Table, error) {
	r := newRunner(p)
	model := energy.DDR5()
	t := &Table{
		ID:     "tab4",
		Title:  "DAPPER-H energy overhead (vs insecure baseline)",
		Header: []string{"NRH", "Benign", "Streaming Attack", "Refresh Attack"},
	}
	for _, nrh := range p.NRHSweep {
		row := []string{fmt.Sprintf("%d", nrh)}
		for _, sc := range []struct {
			kind    attack.Kind
			benign4 bool
		}{
			{attack.None, true},
			{attack.StreamingSweep, false},
			{attack.Refresh, false},
		} {
			var vals []float64
			for _, w := range p.SweepWorkloads {
				run := p.dapperRun(w, "dapper-h", rh.VRR1, sc.kind, nrh, sc.benign4)
				_, treat, base, err := r.normalized(run, true)
				if err != nil {
					return nil, err
				}
				ov := model.Overhead(treat.Counters, base.Counters, treat.Cycles,
					run.Geometry.Channels, rh.VRR1)
				vals = append(vals, ov)
			}
			row = append(row, pct(stats.Mean(vals)))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper at NRH=500: benign 0.1%%, streaming 0.2%%, refresh 1.1%%; at 125: 4.5/7.0/7.5%%")
	t.AddNote("overhead = mitigation-operation energy (victim/bulk refreshes, counter traffic) over baseline total energy")
	return t, nil
}
