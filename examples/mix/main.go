// Mix example: build heterogeneous multi-programmed scenarios with
// internal/mix — a seeded stratified random mix and a hand-placed
// two-attacker mix — sweep them over two trackers through the harness,
// and read the weighted-speedup metric block. The same machinery backs
// `dapper mix`'s report; this is the in-process taste.
//
//	go run ./examples/mix
package main

import (
	"fmt"

	"dapper/internal/exp"
	"dapper/internal/harness"
	"dapper/internal/mix"
	"dapper/internal/rh"
)

func main() {
	// A seeded random mix: 4 cores, one attacker on a seeded random
	// core, exactly two benign slots from the paper's >= 2-RBMPKI
	// memory-intensity group. The same config and seed always generate
	// the same spec — and therefore the same canonical ID.
	random := mix.MustGenerate(mix.GenConfig{
		Cores: 4, Attackers: 1, Intensive: 2, Seed: 7,
	})

	// A hand-written spec: two mapping-agnostic refresh attackers
	// co-running with two benign applications — a shape the homogeneous
	// scenario helpers (sim.AttackScenario) cannot express. For the
	// escape-forcing focused hammer instead, take the parametric point
	// from exp.ParseAuditAttack("hammer").
	refresh := mix.Slot{Attack: "refresh"}
	placed := mix.Spec{Slots: []mix.Slot{
		refresh, {Workload: "429.mcf"}, refresh, {Workload: "ycsb_a"},
	}}

	for _, sp := range []mix.Spec{random, placed} {
		fmt.Printf("%s  %s  (%d attackers on cores %v, %d intensive)\n",
			sp.ID(), sp.Label(), sp.Attackers(), sp.AttackerCores(), sp.Intensive())
	}

	// Sweep tracker x mix x NRH through the harness: per-core isolated
	// baselines run once and are shared across trackers; every row
	// scores weighted/harmonic speedup and fairness against them.
	pool := harness.NewPool(harness.Options{})
	rows, err := exp.RunMixSweep(exp.MixRequest{
		Trackers: []string{"none", "dapper-h"},
		Mixes:    []mix.Spec{random, placed},
		NRHs:     []uint32{500},
		Mode:     rh.VRR1,
		Profile:  exp.Tiny(),
	}, pool)
	if err != nil {
		panic(err)
	}
	if err := pool.Close(); err != nil {
		panic(err)
	}

	fmt.Printf("\n%-10s %-16s %8s %8s %8s\n", "tracker", "mix", "WS", "HS", "fair")
	for _, r := range rows {
		fmt.Printf("%-10s %-16s %8.3f %8.3f %8.3f\n",
			r.Tracker, r.Mix, r.Weighted, r.Harmonic, r.Fairness)
	}
}
