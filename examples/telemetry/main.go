// Telemetry example: turn on the in-sim cycle-windowed sampler
// (exp.Run.TelemetryWindow), run DAPPER-H and the insecure baseline
// under the same refresh-synchronized performance attack, and plot
// mitigation rate versus time next to the benign cores' IPC — the
// dynamics view behind the paper's steady-state averages. The same
// Series backs `dapper timeline`'s JSONL/CSV output; this is the
// in-process taste, with an ASCII plot instead of a file.
//
//	go run ./examples/telemetry
package main

import (
	"fmt"
	"strings"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/exp"
	"dapper/internal/telemetry"
)

const (
	nrh      = 125 // the audit operating point, low enough to trigger mitigation in a short run
	warmupUS = 5
	window   = 60 // measured µs
	windowUS = 5
)

// run simulates three benign copies of 429.mcf plus one attacker core
// with the windowed sampler attached, and returns the embedded series.
func run(tracker string) *telemetry.Series {
	res, err := exp.Run{
		Tracker:         tracker,
		NRH:             nrh,
		Workload:        "429.mcf",
		Attack:          exp.AttackPoint{Kind: attack.Refresh},
		Geometry:        dram.Scaled(1024),
		Warmup:          dram.US(warmupUS),
		Measure:         dram.US(window),
		Seed:            1,
		TelemetryWindow: dram.US(windowUS),
	}.Exec()
	if err != nil {
		panic(err)
	}
	return res.Series
}

// mitPerUS returns window w's mitigation commands (all kinds, all
// channels) per simulated microsecond.
func mitPerUS(s *telemetry.Series, w int) float64 {
	var n uint64
	for _, ch := range s.Channels {
		n += ch.VRR[w] + ch.RFMsb[w] + ch.DRFMsb[w]
	}
	us := float64(s.WindowLen(w)) / float64(dram.US(1))
	return float64(n) / us
}

// benignIPC returns window w's IPC averaged over the benign cores
// (every core but the attacker on the last one).
func benignIPC(s *telemetry.Series, w int) float64 {
	var ipc float64
	n := len(s.Cores) - 1
	for _, c := range s.Cores[:n] {
		ipc += c.IPC[w]
	}
	return ipc / float64(n)
}

func bar(v, max float64, width int) string {
	if max <= 0 {
		return ""
	}
	n := int(v / max * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

func main() {
	dapper := run("dapper-h")
	baseline := run("none") // insecure machine, same attacked scenario

	// Find the plot scales over the measured windows.
	first := int(dapper.Warmup / dapper.Window)
	var maxMit, maxIPC float64
	for w := first; w < dapper.NumWindows(); w++ {
		if m := mitPerUS(dapper, w); m > maxMit {
			maxMit = m
		}
		for _, s := range []*telemetry.Series{dapper, baseline} {
			if i := benignIPC(s, w); i > maxIPC {
				maxIPC = i
			}
		}
	}

	fmt.Printf("refresh attack, NRH %d, %dus windows (warmup sliced off)\n\n", nrh, windowUS)
	fmt.Printf("%-8s  %-28s  %-20s  %s\n", "t (us)", "dapper-h mitigations/us", "benign IPC dapper-h", "benign IPC none")
	for w := first; w < dapper.NumWindows(); w++ {
		t := float64(dapper.WindowStart(w)) / float64(dram.US(1))
		m := mitPerUS(dapper, w)
		di, bi := benignIPC(dapper, w), benignIPC(baseline, w)
		fmt.Printf("%-8.0f  %6.1f %-21s  %5.2f %-14s  %5.2f %s\n",
			t, m, bar(m, maxMit, 20), di, bar(di, maxIPC, 14), bi, bar(bi, maxIPC, 14))
	}

	// The grand totals double as the conservation oracle: sim.Run has
	// already cross-checked them against the final DRAM counters.
	fmt.Printf("\ndapper-h totals: demand ACT %d, injected ACT %d, VRR %d\n",
		dapper.Totals.DemandACT, dapper.Totals.InjACT, dapper.Totals.VRR)
	fmt.Printf("baseline totals: demand ACT %d, injected ACT %d, VRR %d\n",
		baseline.Totals.DemandACT, baseline.Totals.InjACT, baseline.Totals.VRR)
}
