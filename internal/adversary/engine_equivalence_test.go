package adversary

import (
	"reflect"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/exp"
	"dapper/internal/sim"
	"dapper/internal/workloads"
)

// TestEngineEquivalenceParametric extends the engine-equivalence matrix
// beyond the named attack kinds: seeded samples from the
// adversary search space — the exact traces the search evaluates — must
// produce identical Results under the event and cycle engines. One
// point per tracker keeps the matrix seconds-long while still crossing
// every tracker's state machine with a randomly-shaped attacker; the
// audited variant additionally proves the shadow oracle's verdict is
// engine-independent on these traces.
// TestEngineEquivalenceAttributionParametric is the attribution
// conservation property over seeded parametric attacks: for random
// points of the adversary search space — attackers of arbitrary shape,
// fan-out and intensity — every attribution-enabled run must conserve
// (the CPI partition, blame-bucket sums, wait-total and windowed
// fold-back gates all run as hard errors inside sim.Run), validate,
// and come out byte-identical across the event and cycle engines.
func TestEngineEquivalenceAttributionParametric(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep is seconds-long; skipped in -short")
	}
	p := exp.Tiny()
	p.Seed = 7
	p.Attribution = true
	p.TelemetryWindow = dram.US(5)
	space := NewSpace(p.Geometry)
	rng := newRNG(23)
	w, err := workloads.ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	trackers := []string{"none", "hydra", "comet", "blockhammer", "dapper-h"}
	for _, id := range trackers {
		v := space.Sample(rng)
		params := space.Params(v)
		t.Run(id, func(t *testing.T) {
			mk := func(engine sim.Engine) sim.Result {
				r := p.BaseRun()
				r.Tracker, r.NRH, r.Workload, r.Engine, r.Measure = id, 500, w.Name, engine, dram.US(25)
				r.Attack = exp.AttackPoint{Kind: attack.Parametric, Params: params}
				res, err := r.Exec()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := mk(sim.EngineCycle)
			got := mk(sim.EngineEvent)
			if want.Attribution == nil {
				t.Fatal("attribution-on run carried no Attribution")
			}
			if err := want.Attribution.Validate(); err != nil {
				t.Fatalf("point %s: %v", params.Canonical(), err)
			}
			if err := want.Attribution.CheckSeries(want.Series); err != nil {
				t.Fatalf("point %s: %v", params.Canonical(), err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("engines diverge on %s\n cycle: %+v\n event: %+v",
					params.Canonical(), want, got)
			}
		})
	}
}

func TestEngineEquivalenceParametric(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is seconds-long; skipped in -short")
	}
	p := exp.Tiny()
	p.Seed = 3
	space := NewSpace(p.Geometry)
	rng := newRNG(11)
	w, err := workloads.ByName("ycsb_a")
	if err != nil {
		t.Fatal(err)
	}
	trackers := []string{"none", "hydra", "comet", "blockhammer", "dapper-h"}
	for _, id := range trackers {
		v := space.Sample(rng)
		params := space.Params(v)
		t.Run(id, func(t *testing.T) {
			mk := func(engine sim.Engine, audited bool) sim.Result {
				r := p.BaseRun()
				r.Tracker, r.NRH, r.Workload, r.Engine, r.Measure = id, 500, w.Name, engine, dram.US(25)
				r.Attack = exp.AttackPoint{Kind: attack.Parametric, Params: params}
				r.Audit = audited
				res, err := r.Exec()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			for _, audited := range []bool{false, true} {
				want := mk(sim.EngineCycle, audited)
				got := mk(sim.EngineEvent, audited)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("audited=%v: engines diverge on %s\n cycle: %+v\n event: %+v",
						audited, params.Canonical(), want, got)
				}
				if audited && got.Audit == nil {
					t.Fatal("audited run carried no report")
				}
			}
		})
	}
}
