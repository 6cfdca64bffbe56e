package exp

import (
	"bytes"
	"encoding/json"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/sim"
)

// TestEngineEquivalenceAttributionSweep extends the engine-equivalence
// matrix with the slowdown-attribution case: three trackers covering
// the distinct blame paths (DAPPER-H mitigation blocks, BlockHammer
// throttling, Hydra counter injection), each under a benign co-run and
// the focused hammer — all with windowed stacks attached. The event engine's catch-up folds must
// produce an Attribution and Series byte-identical to the per-cycle
// reference; the conservation gates (CPI partition, blame-bucket sums,
// windowed fold-back) already run as hard errors inside sim.Run, so a
// passing run is a conserved run.
func TestEngineEquivalenceAttributionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is seconds-long; skipped in -short")
	}
	geo := dram.Baseline()
	const nrh = 125
	checkPair := func(t *testing.T, want, got sim.Result) {
		t.Helper()
		if want.Attribution == nil || got.Attribution == nil {
			t.Fatal("attribution-on run carried no Attribution")
		}
		if want.Series == nil || want.Series.Blame == nil || want.Series.Cores[0].StallROB == nil {
			t.Fatal("windowed run carried no blame series / stall split")
		}
		for _, pair := range []struct {
			what string
			x, y any
		}{
			{"attribution", want.Attribution, got.Attribution},
			{"series", want.Series, got.Series},
		} {
			xb, err := json.Marshal(pair.x)
			if err != nil {
				t.Fatal(err)
			}
			yb, err := json.Marshal(pair.y)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(xb, yb) {
				t.Fatalf("engines diverge on %s:\n cycle: %s\n event: %s", pair.what, xb, yb)
			}
		}
		if err := want.Attribution.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := want.Attribution.CheckSeries(want.Series); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"dapper-h", "blockhammer", "hydra"} {
		for _, atk := range []string{"none", "hammer"} {
			t.Run(id+"/"+atk, func(t *testing.T) {
				mk := func(engine sim.Engine) sim.Result {
					r := Run{
						Tracker:  id,
						NRH:      nrh,
						Workload: "ycsb_a",
						Benign4:  atk == "none",
						Geometry: geo,
						Warmup:   dram.US(5),
						Measure:  dram.US(25),
						Seed:     3,
						Engine:   engine,

						TelemetryWindow: dram.US(5),
						Attribution:     true,
					}
					if atk == "hammer" {
						r.Attack = AttackPoint{Kind: attack.Parametric, Params: hammerParams()}
					}
					res, err := r.Exec()
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				checkPair(t, mk(sim.EngineCycle), mk(sim.EngineEvent))
			})
		}
	}
}
