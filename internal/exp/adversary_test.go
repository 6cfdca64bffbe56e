package exp

import (
	"testing"

	"dapper/internal/attack"
	"dapper/internal/harness"
)

// TestAdversaryJobDescriptor: parametric evaluations must carry their
// param vector into the cache key; native-kind evaluations must key
// exactly like the figure runs (no AttackParams).
func TestAdversaryJobDescriptor(t *testing.T) {
	p := Tiny()
	w := p.Workloads[0]
	params := attack.Params{Steady: attack.Pattern{Rows: 128, HotFrac: 0.5, HotRows: 2}}
	desc := func(tracker string, pt AttackPoint) harness.Descriptor {
		t.Helper()
		r := p.BaseRun()
		r.Tracker, r.Workload, r.Attack = tracker, w.Name, pt
		job, err := r.Job()
		if err != nil {
			t.Fatal(err)
		}
		return job.Desc
	}
	pd := desc("hydra", AttackPoint{Kind: attack.Parametric, Params: params})
	if pd.Attack != "parametric" || pd.AttackParams != params.Canonical() {
		t.Fatalf("parametric descriptor = %+v", pd)
	}
	nd := desc("hydra", AttackPoint{Kind: attack.HydraConflict})
	if nd.AttackParams != "" {
		t.Fatalf("native kind leaked attack params: %q", nd.AttackParams)
	}
	if nd != p.perfAttackRun(w, "hydra", attack.HydraConflict, p.NRH).Desc() {
		t.Fatal("native-kind evaluation keys apart from the figure run")
	}
	if pd.Key() == nd.Key() {
		t.Fatal("parametric and native runs alias one cache key")
	}

	other := params
	other.Steady.Rows = 129
	if desc("hydra", AttackPoint{Kind: attack.Parametric, Params: other}).Key() == pd.Key() {
		t.Fatal("nearby search points alias one cache key")
	}

	r := p.BaseRun()
	r.Tracker, r.Workload = "nope", w.Name
	if _, err := r.Job(); err == nil {
		t.Fatal("unknown tracker accepted")
	}
	r.Tracker, r.Attack = "hydra", AttackPoint{Kind: attack.Refresh, Params: params}
	if _, err := r.Job(); err == nil {
		t.Fatal("params on a native kind accepted (they would alias the plain run's key)")
	}

	if base := desc("none", AttackPoint{}); base.Tracker != "none" || base.Attack != "none" {
		t.Fatalf("baseline descriptor = %+v", base)
	}
}

func TestTrackerName(t *testing.T) {
	cases := map[string]string{
		"none": "none", "hydra": "Hydra", "start": "START", "comet": "CoMeT",
		"abacus": "ABACUS", "dapper-h": "DAPPER-H",
	}
	for id, want := range cases {
		got, err := TrackerName(id)
		if err != nil {
			t.Fatalf("TrackerName(%s): %v", id, err)
		}
		if got != want {
			t.Fatalf("TrackerName(%s) = %s, want %s", id, got, want)
		}
	}
	if _, err := TrackerName("bogus"); err == nil {
		t.Fatal("unknown id accepted")
	}
}
