// Telemetry example: turn on the in-sim cycle-windowed sampler
// (exp.Run.TelemetryWindow) and slowdown attribution
// (exp.Run.Attribution), run DAPPER-H and the insecure baseline under
// the same refresh-synchronized performance attack, and answer both
// halves of "why are the benign cores slow?": when — mitigation rate
// versus time next to the benign cores' IPC — and who — each core's
// CPI stack, memory-wait blame and the core→core blame matrix. The same
// Series and Attribution back `dapper timeline`'s report files; this is
// the in-process taste, with ASCII plots instead of files.
//
//	go run ./examples/telemetry
package main

import (
	"fmt"
	"os"
	"strings"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/exp"
	"dapper/internal/sim"
	"dapper/internal/telemetry"
)

const (
	nrh      = 125 // the audit operating point, low enough to trigger mitigation in a short run
	warmupUS = 5
	window   = 60 // measured µs
	windowUS = 5
)

// run simulates three benign copies of 429.mcf plus one attacker core
// with the windowed sampler and the attribution fold attached.
func run(tracker string) sim.Result {
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
		Attribution:     true,
	}.Exec()
	if err != nil {
		panic(err)
	}
	return res
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
	dapperRes := run("dapper-h")
	baseRes := run("none") // insecure machine, same attacked scenario
	dapper, baseline := dapperRes.Series, baseRes.Series

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

	labels := []string{"429.mcf", "429.mcf", "429.mcf", "!refresh"}
	for _, r := range []struct {
		title string
		res   sim.Result
	}{{"DAPPER-H", dapperRes}, {"insecure baseline", baseRes}} {
		fmt.Printf("\n=== %s: CPI stacks and memory-wait blame ===\n", r.title)
		if err := telemetry.RenderBlameASCII(os.Stdout, r.res.Attribution, labels); err != nil {
			panic(err)
		}
	}
	fmt.Println("\nReading it: once DAPPER-H's mitigation rate ramps up, benign IPC drops")
	fmt.Println("below the baseline's, and the benign cores' wait grows a mitigation")
	fmt.Println("slice that is zero on the insecure machine. Column 3 of each matrix")
	fmt.Println("charges the attacker core for the conflicts, queueing and mitigation")
	fmt.Println("blocks it caused: the per-victim number behind the headline slowdown.")
}
