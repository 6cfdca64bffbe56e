// Blame example: turn on slowdown attribution (exp.Run.Attribution)
// and ask the question the averages can't answer — *why* is the benign
// core slow? Two DAPPER-H runs at the NRH-125 audit operating point,
// one benign co-run and one with the focused hammer on the fourth
// core, render their per-core CPI stacks and memory-wait blame
// side-by-side: the attacked run's extra wait cycles decompose into
// queue time spent behind the attacker's serves and the mitigation
// blocks it triggered, charged to it in the matrix. The same Attribution backs
// `dapper blame`'s JSONL/CSV/matrix output; this is the in-process
// taste.
//
//	go run ./examples/blame
package main

import (
	"fmt"
	"os"

	"dapper/internal/dram"
	"dapper/internal/exp"
	"dapper/internal/telemetry"
)

const (
	nrh       = 125 // the audit operating point
	warmupUS  = 5
	measureUS = 60
)

// run simulates DAPPER-H with attribution attached: four benign
// copies of 429.mcf, or three plus the focused double-row hammer.
func run(hammer bool) (*telemetry.Attribution, []string) {
	r := exp.Run{
		Tracker:     "dapper-h",
		NRH:         nrh,
		Workload:    "429.mcf",
		Benign4:     true,
		Geometry:    dram.Scaled(1024),
		Warmup:      dram.US(warmupUS),
		Measure:     dram.US(measureUS),
		Seed:        1,
		Attribution: true,
	}
	labels := []string{r.Workload, r.Workload, r.Workload, r.Workload}
	if hammer {
		sa, err := exp.ParseAuditAttack("hammer")
		if err != nil {
			panic(err)
		}
		r.Attack, r.Benign4 = sa.Point, false
		labels[3] = "!hammer"
	}
	res, err := r.Exec()
	if err != nil {
		panic(err)
	}
	return res.Attribution, labels
}

func main() {
	for _, c := range []struct {
		title  string
		hammer bool
	}{
		{"DAPPER-H, benign co-run (4x 429.mcf), NRH 125", false},
		{"DAPPER-H, focused hammer on core 3, NRH 125", true},
	} {
		a, labels := run(c.hammer)
		fmt.Printf("=== %s ===\n", c.title)
		if err := telemetry.RenderBlameASCII(os.Stdout, a, labels); err != nil {
			panic(err)
		}
		fmt.Println()
	}
	fmt.Println("Reading it: under attack a stall.bp slice appears on the benign cores")
	fmt.Println("(the queue pushes back), their mem blame grows queue_demand and")
	fmt.Println("mitigation slices that were ~0 in the benign co-run, and the matrix's")
	fmt.Println("column 3 shows every victim charging the attacker core directly —")
	fmt.Println("the per-victim number behind the headline slowdown.")
}
