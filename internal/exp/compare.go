package exp

import (
	"fmt"

	"dapper/internal/analytic"
	"dapper/internal/attack"
	"dapper/internal/core"
	"dapper/internal/dram"
	"dapper/internal/rh"
	"dapper/internal/stats"
)

// sweepScenario is one row of an NRH-sweep figure: a tracker id and
// mode under one DAPPER-figure scenario.
type sweepScenario struct {
	name    string
	tracker string
	mode    rh.MitigationMode
	kind    attack.Kind
	benign4 bool
}

// addSweepRows adds one row per scenario: the sweep-workload mean
// normalized perf at each threshold of the NRH sweep.
func addSweepRows(t *Table, r *runner, rows []sweepScenario) error {
	for _, sc := range rows {
		row := []string{sc.name}
		for _, nrh := range r.p.NRHSweep {
			var vals []float64
			for _, w := range r.p.SweepWorkloads {
				np, _, _, err := r.dapperNormalized(w, sc.tracker, sc.mode, sc.kind, nrh, sc.benign4)
				if err != nil {
					return err
				}
				vals = append(vals, np)
			}
			row = append(row, norm(stats.Mean(vals)))
		}
		t.AddRow(row...)
	}
	return nil
}

func sweepHeader(t *Table, p Profile) {
	for _, nrh := range p.NRHSweep {
		t.Header = append(t.Header, fmt.Sprintf("NRH=%d", nrh))
	}
}

// Fig14 reproduces Figure 14: BlockHammer vs DAPPER-H on benign
// applications across the sweep.
func Fig14(p Profile) (*Table, error) {
	r := newRunner(p)
	t := &Table{ID: "fig14", Title: "BlockHammer vs DAPPER-H (benign)", Header: []string{"Config"}}
	sweepHeader(t, p)
	err := addSweepRows(t, r, []sweepScenario{
		{"BlockHammer", "blockhammer", rh.VRR1, attack.None, true},
		{"DAPPER-H", "dapper-h", rh.VRR1, attack.None, true},
		{"DAPPER-H-DRFMsb", "dapper-h", rh.DRFMsb, attack.None, true},
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("paper: BlockHammer loses 25%% at NRH=500 and 66%% at 125; DAPPER-H <1%% and 4%%")
	return t, nil
}

// probabilisticRows builds the PARA/PrIDE/DAPPER-H row set shared by
// Figures 15 and 16.
func probabilisticRows(kind attack.Kind, benign4 bool) []sweepScenario {
	return []sweepScenario{
		{"PARA", "para", rh.VRR1, kind, benign4},
		{"PARA-DRFMsb", "para", rh.DRFMsb, kind, benign4},
		{"PrIDE", "pride", rh.VRR1, kind, benign4},
		{"PrIDE-RFMsb", "pride", rh.RFMsb, kind, benign4},
		{"DAPPER-H", "dapper-h", rh.VRR1, kind, benign4},
		{"DAPPER-H-DRFMsb", "dapper-h", rh.DRFMsb, kind, benign4},
	}
}

// Fig15 reproduces Figure 15: probabilistic mitigations vs DAPPER-H on
// benign applications.
func Fig15(p Profile) (*Table, error) {
	r := newRunner(p)
	t := &Table{ID: "fig15", Title: "PARA/PrIDE vs DAPPER-H (benign)", Header: []string{"Config"}}
	sweepHeader(t, p)
	if err := addSweepRows(t, r, probabilisticRows(attack.None, true)); err != nil {
		return nil, err
	}
	t.AddNote("paper at NRH=500: PARA 3%%, PrIDE 7%%, PARA-DRFMsb 18%%, PrIDE-RFMsb 12%%, DAPPER-H <0.3%%")
	return t, nil
}

// Fig16 reproduces Figure 16: the same configurations under the refresh
// Perf-Attack.
func Fig16(p Profile) (*Table, error) {
	r := newRunner(p)
	t := &Table{ID: "fig16", Title: "PARA/PrIDE vs DAPPER-H (under Perf-Attack)", Header: []string{"Config"}}
	sweepHeader(t, p)
	if err := addSweepRows(t, r, probabilisticRows(attack.Refresh, false)); err != nil {
		return nil, err
	}
	t.AddNote("paper at NRH=125: PARA 15%%, PrIDE 23%%, DAPPER-H 6%%")
	return t, nil
}

// Fig17 reproduces Figure 17: PRAC vs DAPPER-H, benign and under
// Perf-Attacks.
func Fig17(p Profile) (*Table, error) {
	r := newRunner(p)
	t := &Table{ID: "fig17", Title: "PRAC vs DAPPER-H", Header: []string{"Config"}}
	sweepHeader(t, p)
	err := addSweepRows(t, r, []sweepScenario{
		{"PRAC", "prac", rh.VRR1, attack.None, true},
		{"PRAC-Perf", "prac", rh.VRR1, attack.Refresh, false},
		{"DAPPER-H", "dapper-h", rh.VRR1, attack.None, true},
		{"DAPPER-H-DRFMsb", "dapper-h", rh.DRFMsb, attack.None, true},
		{"DAPPER-H-Refresh", "dapper-h", rh.VRR1, attack.Refresh, false},
		{"DAPPER-H-DRFMsb-Refresh", "dapper-h", rh.DRFMsb, attack.Refresh, false},
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("paper: PRAC ~7%% benign at every NRH (counter-update tax); DAPPER-H <4%% benign, 6%% at NRH=125 under attack")
	return t, nil
}

// Tab2 reproduces Table II from the closed-form model (Equations 1-5).
func Tab2(Profile) (*Table, error) {
	t := &Table{
		ID:     "tab2",
		Title:  "DAPPER-S Mapping-Capturing attack (Equations 1-5)",
		Header: []string{"treset", "Iterations (model)", "Attack time (model)", "Iterations (paper)", "Attack time (paper)"},
	}
	for _, row := range analytic.Table2Paper() {
		r := analytic.AnalyzeS(analytic.DefaultSParams(row.TResetUS * 1000))
		t.AddRow(
			fmt.Sprintf("%.0fus", row.TResetUS),
			fmt.Sprintf("%.1f", r.Iterations),
			fmt.Sprintf("%.1fus", r.AttackTimeNS/1000),
			fmt.Sprintf("%.1f", row.Iterations),
			row.AttackTime,
		)
	}
	t.AddNote("effective ACT interval 3.75ns (tRRD_S 2.5ns derated by refresh and command-bus overheads; see analytic.SParams) reproduces the published rows")
	return t, nil
}

// Tab3 reproduces Table III: published storage plus this repo's
// independent recomputation of the DAPPER footprints.
func Tab3(Profile) (*Table, error) {
	t := &Table{
		ID:     "tab3",
		Title:  "Storage overhead per 32GB DDR5 (Table III)",
		Header: []string{"Mitigation", "SRAM (KB)", "CAM (KB)", "Die area (mm2)"},
	}
	for _, r := range analytic.Table3() {
		t.AddRow(r.Name, fmt.Sprintf("%.1f", r.SRAMKB), fmt.Sprintf("%.1f", r.CAMKB),
			fmt.Sprintf("%.3f", r.DieAreaMM2))
	}
	cfg := core.Config{Geometry: dram.Baseline(), NRH: 500}
	t.AddNote("recomputed from this repo's configs: DAPPER-H %dKB (2 RGC tables %dKB + bit-vectors), DAPPER-S %dKB",
		cfg.StorageBytesH()/1024,
		2*dram.Baseline().Ranks*cfg.NumGroups()/1024,
		cfg.StorageBytesS()/1024)
	return t, nil
}

// SecH reproduces the §VI-C security analysis: Equations 6-7 plus a
// Monte-Carlo mapping-capture run against live trackers.
func SecH(p Profile) (*Table, error) {
	t := &Table{
		ID:     "sec-h",
		Title:  "DAPPER-H Mapping-Capturing resistance (Equations 6-7)",
		Header: []string{"Quantity", "Value"},
	}
	h := analytic.AnalyzeH(analytic.DefaultHParams())
	t.AddRow("Per-trial success p (Eq 6)", fmt.Sprintf("%.3g", h.PerTrialProb))
	t.AddRow("Per-tREFW success PS (Eq 7)", fmt.Sprintf("%.3g", h.SuccessProb))
	t.AddRow("Prevention rate", fmt.Sprintf("%.4f%%", h.Prevention*100))

	// Monte-Carlo against live trackers (scaled geometry).
	geo := p.DapperGeometry
	ds, err := core.NewDapperS(0, core.Config{Geometry: geo, NRH: p.NRH, Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	sRes := attack.MappingCaptureS(ds, geo, 4_000_000)
	t.AddRow("Monte-Carlo DAPPER-S (static map) captured", fmt.Sprintf("%v after %d probes", sRes.Captured, sRes.Trials))

	dh, err := core.NewDapperH(0, core.Config{Geometry: geo, NRH: p.NRH, Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	hRes := attack.MappingCaptureH(dh, geo, p.Seed^0xC0FFEE, 4_000_000)
	t.AddRow("Monte-Carlo DAPPER-H captured", fmt.Sprintf("%v after %d trials", hRes.Captured, hRes.Trials))
	t.AddNote("paper: 99.99%% prevention per tREFW at 8K groups")
	return t, nil
}
