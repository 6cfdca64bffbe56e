package exp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/sim"
)

// TestSinkConsumersCompose runs one attack point with the security
// oracle, the windowed telemetry and the slowdown attribution teed onto
// one controller sink, each of them alone, and with no sink at all. Each
// consumer's output must be byte-identical to its solo run's, and every
// other Result field to the sink-free run's: the consumers neither see
// each other nor perturb the simulation.
func TestSinkConsumersCompose(t *testing.T) {
	base := Tiny().BaseRun()
	base.Tracker, base.NRH, base.Workload = "hydra", 32, "429.mcf"
	base.Attack = AttackPoint{Kind: attack.HydraConflict}
	exec := func(audit bool, window dram.Cycle, attr bool) sim.Result {
		t.Helper()
		r := base
		r.Audit, r.TelemetryWindow, r.Attribution = audit, window, attr
		res, err := r.Exec()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	window := dram.US(5)
	all := exec(true, window, true)
	audit := exec(true, 0, false)
	series := exec(false, window, false)
	attr := exec(false, 0, true)
	none := exec(false, 0, false)
	if all.Audit == nil || all.Series == nil || all.Attribution == nil {
		t.Fatal("combined run is missing a consumer's output")
	}
	if all.Series.Blame == nil {
		t.Fatal("combined run carries no windowed blame")
	}
	if none.Counters.VRR == 0 || none.Counters.InjRD == 0 {
		t.Fatalf("the point exercises no mitigation or counter traffic: %+v", none.Counters)
	}

	// The attribution's windowed extensions ride the Series; the
	// telemetry fold itself must match the solo telemetry run.
	tel := *all.Series
	tel.Blame = nil
	tel.Cores = nil
	for _, c := range all.Series.Cores {
		c.StallROB, c.StallBP = nil, nil
		tel.Cores = append(tel.Cores, c)
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"Audit", all.Audit, audit.Audit},
		{"Series", &tel, series.Series},
		{"Attribution", all.Attribution, attr.Attribution},
	} {
		got, err := json.Marshal(c.got)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(c.want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between the combined and the solo run:\n combined %s\n solo     %s", c.name, got, want)
		}
	}

	for _, res := range []sim.Result{all, audit, series, attr} {
		res.Audit, res.Series, res.Attribution = nil, nil, nil
		if !reflect.DeepEqual(res, none) {
			t.Errorf("an attached sink perturbed the Result:\n with    %+v\n without %+v", res, none)
		}
	}
}
