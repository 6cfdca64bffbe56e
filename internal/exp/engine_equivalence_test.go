package exp

import (
	"reflect"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/sim"
)

// TestEngineEquivalenceAllTrackers is the full safety-net matrix for the
// event engine: every sweepable tracker (the complete internal/trackers
// set plus both DAPPER variants and the insecure baseline), each under a
// benign co-run and its tailored Perf-Attack, must produce a Result
// byte-identical to the per-cycle reference engine — and identical again
// on a second event-engine run (determinism).
func TestEngineEquivalenceAllTrackers(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is seconds-long; skipped in -short")
	}
	geo := dram.Baseline()
	const nrh = 500
	for _, id := range KnownTrackers() {
		kinds := []attack.Kind{attack.None, attack.ForTracker(trackerDefs[id].name)}
		for _, kind := range kinds {
			t.Run(id+"/"+kind.String(), func(t *testing.T) {
				mk := func(engine sim.Engine) sim.Result {
					res, err := Run{
						Tracker:  id,
						NRH:      nrh,
						Workload: "ycsb_a",
						Attack:   AttackPoint{Kind: kind},
						Benign4:  kind == attack.None,
						Geometry: geo,
						Warmup:   dram.US(5),
						Measure:  dram.US(25),
						Seed:     3,
						Engine:   engine,
					}.Exec()
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				want := mk(sim.EngineCycle)
				got := mk(sim.EngineEvent)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s under %s: engines diverge\n cycle: %+v\n event: %+v",
						id, kind, want, got)
				}
				if again := mk(sim.EngineEvent); !reflect.DeepEqual(got, again) {
					t.Fatalf("%s under %s: event engine non-deterministic", id, kind)
				}
			})
		}
	}
}
