package exp

import (
	"encoding/json"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/goldentest"
	"dapper/internal/sim"
)

// TestResultGolden pins full simulated Results, so a change anywhere in
// the core, cache, controller, DRAM or tracker models that moves a
// number fails tier-1 and must regenerate testdata/results.json.golden
// with -update as a reviewed change. The points are tiny-profile, seed
// 1: four benign 429.mcf copies with no tracker, then every known
// tracker under the focused hammer at NRH 125 with the security oracle
// attached, so each secaudit report is pinned too.
func TestResultGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve simulations; skipped in -short")
	}
	p := Tiny()
	type point struct {
		Point  string     `json:"point"`
		Result sim.Result `json:"result"`
	}
	var points []point
	add := func(name string, r Run) {
		t.Helper()
		res, err := r.Exec()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		points = append(points, point{name, res})
	}

	benign := p.BaseRun()
	benign.Workload, benign.Benign4 = "429.mcf", true
	add("none/benign4/429.mcf", benign)
	for _, id := range KnownTrackers() {
		r := p.BaseRun()
		r.Tracker, r.NRH, r.Workload, r.Audit = id, 125, "429.mcf", true
		r.Attack = AttackPoint{Kind: attack.Parametric, Params: hammerParams()}
		add(id+"/hammer/429.mcf/nrh125", r)
	}

	out, err := json.MarshalIndent(points, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	goldentest.Check(t, "results.json.golden", append(out, '\n'))
}
