package exp

import (
	"fmt"

	"dapper/internal/analytic"
	"dapper/internal/attack"
	"dapper/internal/core"
	"dapper/internal/dram"
	"dapper/internal/rh"
)

// fig14 reproduces Figure 14: BlockHammer vs DAPPER-H on benign
// applications across the sweep.
func fig14(p Profile) (figure, error) {
	return p.sweep("BlockHammer vs DAPPER-H (benign)", "Config",
		"paper: BlockHammer loses 25% at NRH=500 and 66% at 125; DAPPER-H <1% and 4%",
		[]scenario{
			{"BlockHammer", "blockhammer", rh.VRR1, attack.None, true},
			{"DAPPER-H", "dapper-h", rh.VRR1, attack.None, true},
			{"DAPPER-H-DRFMsb", "dapper-h", rh.DRFMsb, attack.None, true},
		}, true), nil
}

// probabilisticScenarios builds the PARA/PrIDE/DAPPER-H row set shared
// by Figures 15 and 16.
func probabilisticScenarios(kind attack.Kind, benign4 bool) []scenario {
	return []scenario{
		{"PARA", "para", rh.VRR1, kind, benign4},
		{"PARA-DRFMsb", "para", rh.DRFMsb, kind, benign4},
		{"PrIDE", "pride", rh.VRR1, kind, benign4},
		{"PrIDE-RFMsb", "pride", rh.RFMsb, kind, benign4},
		{"DAPPER-H", "dapper-h", rh.VRR1, kind, benign4},
		{"DAPPER-H-DRFMsb", "dapper-h", rh.DRFMsb, kind, benign4},
	}
}

// fig15 reproduces Figure 15: probabilistic mitigations vs DAPPER-H on
// benign applications.
func fig15(p Profile) (figure, error) {
	return p.sweep("PARA/PrIDE vs DAPPER-H (benign)", "Config",
		"paper at NRH=500: PARA 3%, PrIDE 7%, PARA-DRFMsb 18%, PrIDE-RFMsb 12%, DAPPER-H <0.3%",
		probabilisticScenarios(attack.None, true), true), nil
}

// fig16 reproduces Figure 16: the same configurations under the refresh
// Perf-Attack.
func fig16(p Profile) (figure, error) {
	return p.sweep("PARA/PrIDE vs DAPPER-H (under Perf-Attack)", "Config",
		"paper at NRH=125: PARA 15%, PrIDE 23%, DAPPER-H 6%",
		probabilisticScenarios(attack.Refresh, false), true), nil
}

// fig17 reproduces Figure 17: PRAC vs DAPPER-H, benign and under
// Perf-Attacks.
func fig17(p Profile) (figure, error) {
	return p.sweep("PRAC vs DAPPER-H", "Config",
		"paper: PRAC ~7% benign at every NRH (counter-update tax); DAPPER-H <4% benign, 6% at NRH=125 under attack",
		[]scenario{
			{"PRAC", "prac", rh.VRR1, attack.None, true},
			{"PRAC-Perf", "prac", rh.VRR1, attack.Refresh, false},
			{"DAPPER-H", "dapper-h", rh.VRR1, attack.None, true},
			{"DAPPER-H-DRFMsb", "dapper-h", rh.DRFMsb, attack.None, true},
			{"DAPPER-H-Refresh", "dapper-h", rh.VRR1, attack.Refresh, false},
			{"DAPPER-H-DRFMsb-Refresh", "dapper-h", rh.DRFMsb, attack.Refresh, false},
		}, true), nil
}

// tab2 reproduces Table II from the closed-form model (Equations 1-5).
func tab2(Profile) (figure, error) {
	f := figure{
		title:  "DAPPER-S Mapping-Capturing attack (Equations 1-5)",
		header: []string{"treset", "Iterations (model)", "Attack time (model)", "Iterations (paper)", "Attack time (paper)"},
		notes:  []string{"effective ACT interval 3.75ns (tRRD_S 2.5ns derated by refresh and command-bus overheads; see analytic.SParams) reproduces the published rows"},
	}
	for _, row := range analytic.Table2Paper() {
		r := analytic.AnalyzeS(analytic.DefaultSParams(row.TResetUS * 1000))
		f.addText(
			fmt.Sprintf("%.0fus", row.TResetUS),
			fmt.Sprintf("%.1f", r.Iterations),
			fmt.Sprintf("%.1fus", r.AttackTimeNS/1000),
			fmt.Sprintf("%.1f", row.Iterations),
			row.AttackTime,
		)
	}
	return f, nil
}

// tab3 reproduces Table III: published storage plus this repo's
// independent recomputation of the DAPPER footprints.
func tab3(Profile) (figure, error) {
	f := figure{title: "Storage overhead per 32GB DDR5 (Table III)", header: []string{"Mitigation", "SRAM (KB)", "CAM (KB)", "Die area (mm2)"}}
	for _, r := range analytic.Table3() {
		f.addText(r.Name, fmt.Sprintf("%.1f", r.SRAMKB), fmt.Sprintf("%.1f", r.CAMKB),
			fmt.Sprintf("%.3f", r.DieAreaMM2))
	}
	cfg := core.Config{Geometry: dram.Baseline(), NRH: 500}
	f.notes = []string{fmt.Sprintf("recomputed from this repo's configs: DAPPER-H %dKB (2 RGC tables %dKB + bit-vectors), DAPPER-S %dKB",
		cfg.StorageBytesH()/1024,
		2*dram.Baseline().Ranks*cfg.NumGroups()/1024,
		cfg.StorageBytesS()/1024)}
	return f, nil
}

// secH reproduces the §VI-C security analysis: Equations 6-7 plus a
// Monte-Carlo mapping-capture run against live trackers.
func secH(p Profile) (figure, error) {
	f := figure{
		title:  "DAPPER-H Mapping-Capturing resistance (Equations 6-7)",
		header: []string{"Quantity", "Value"},
		notes:  []string{"paper: 99.99% prevention per tREFW at 8K groups"},
	}
	h := analytic.AnalyzeH(analytic.DefaultHParams())
	f.addText("Per-trial success p (Eq 6)", fmt.Sprintf("%.3g", h.PerTrialProb))
	f.addText("Per-tREFW success PS (Eq 7)", fmt.Sprintf("%.3g", h.SuccessProb))
	f.addText("Prevention rate", fmt.Sprintf("%.4f%%", h.Prevention*100))

	// Monte-Carlo against live trackers (scaled geometry).
	geo := p.DapperGeometry
	ds, err := core.NewDapperS(0, core.Config{Geometry: geo, NRH: p.NRH, Seed: p.Seed})
	if err != nil {
		return f, err
	}
	sRes := attack.MappingCaptureS(ds, geo, 4_000_000)
	f.addText("Monte-Carlo DAPPER-S (static map) captured", fmt.Sprintf("%v after %d probes", sRes.Captured, sRes.Trials))

	dh, err := core.NewDapperH(0, core.Config{Geometry: geo, NRH: p.NRH, Seed: p.Seed})
	if err != nil {
		return f, err
	}
	hRes := attack.MappingCaptureH(dh, geo, p.Seed^0xC0FFEE, 4_000_000)
	f.addText("Monte-Carlo DAPPER-H captured", fmt.Sprintf("%v after %d trials", hRes.Captured, hRes.Trials))
	return f, nil
}
