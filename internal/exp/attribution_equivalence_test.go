package exp

import (
	"bytes"
	"encoding/json"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/sim"
	"dapper/internal/telemetry"
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
		for _, atk := range []attack.Kind{attack.None, attack.Hammer} {
			t.Run(id+"/"+atk.String(), func(t *testing.T) {
				mk := func(engine sim.Engine) sim.Result {
					r := Run{
						Tracker:  id,
						NRH:      nrh,
						Workload: "ycsb_a",
						Attack:   AttackPoint{Kind: atk},
						Benign4:  atk == attack.None,
						Geometry: geo,
						Warmup:   dram.US(5),
						Measure:  dram.US(25),
						Seed:     3,
						Engine:   engine,

						TelemetryWindow: dram.US(5),
						Attribution:     true,
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

// TestRecorderHalvesIndependent checks that the Series and the
// Attribution, folded by one telemetry.Recorder, do not leak into each
// other. One DAPPER-H run under the focused hammer is simulated three
// ways: attribution without a window, attribution with a window, and a
// window without attribution. The Attribution must not depend on the
// window; the Series must not depend on attribution apart from the
// fields attribution adds (Blame, StallROB, StallBP); and neither may
// move any other Result field.
func TestRecorderHalvesIndependent(t *testing.T) {
	exec := func(window dram.Cycle, attr bool) sim.Result {
		t.Helper()
		res, err := Run{
			Tracker:  "dapper-h",
			NRH:      125,
			Workload: "ycsb_a",
			Attack:   AttackPoint{Kind: attack.Hammer},
			Geometry: dram.Baseline(),
			Warmup:   dram.US(5),
			Measure:  dram.US(25),
			Seed:     3,

			TelemetryWindow: window,
			Attribution:     attr,
		}.Exec()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mustJSON := func(v any) string {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	attrOnly := exec(0, true)
	both := exec(dram.US(5), true)
	seriesOnly := exec(dram.US(5), false)
	if attrOnly.Series != nil || seriesOnly.Attribution != nil {
		t.Fatal("a run carried the half it did not ask for")
	}
	if attrOnly.Attribution == nil || both.Attribution == nil || both.Series == nil || seriesOnly.Series == nil {
		t.Fatal("a run is missing the half it asked for")
	}
	if a, b := mustJSON(attrOnly.Attribution), mustJSON(both.Attribution); a != b {
		t.Fatalf("the window changed the Attribution:\n window 0: %s\n window 5us: %s", a, b)
	}

	stripped := *both.Series
	if stripped.Blame == nil || stripped.Cores[0].StallROB == nil {
		t.Fatal("windowed attribution run carried no blame series / stall split")
	}
	stripped.Blame = nil
	stripped.Cores = append([]telemetry.CoreSeries(nil), stripped.Cores...)
	for i := range stripped.Cores {
		stripped.Cores[i].StallROB, stripped.Cores[i].StallBP = nil, nil
	}
	if a, b := mustJSON(seriesOnly.Series), mustJSON(&stripped); a != b {
		t.Fatalf("attribution changed the Series:\n off: %s\n on:  %s", a, b)
	}

	rest := func(r sim.Result) string {
		r.Series, r.Attribution = nil, nil
		return mustJSON(r)
	}
	for _, r := range []sim.Result{both, seriesOnly} {
		if a, b := rest(attrOnly), rest(r); a != b {
			t.Fatalf("the recorder's configuration moved the simulation:\n %s\n %s", a, b)
		}
	}
}
