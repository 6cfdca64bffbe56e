// Benchmarks: one per table and figure of the paper's evaluation (the
// ids `dapper list experiments` prints). Each benchmark regenerates its table under a reduced
// quick profile and reports the headline metric so `go test -bench=.`
// doubles as a smoke reproduction. Full-scale tables come from
// `go run ./cmd/dapper experiments -exp <id> -profile full`.
package dapper_test

import (
	"runtime"
	"testing"

	"dapper/internal/exp"
	"dapper/internal/harness"
	"dapper/internal/sim"
)

// benchProfile is the shared trimmed quick profile sized so every
// benchmark completes in seconds (exp.Bench, also used by
// `dapper engine-bench`).
func benchProfile() exp.Profile {
	return exp.Bench()
}

func runExp(b *testing.B, id string) {
	runExpProfile(b, id, benchProfile())
}

func runExpProfile(b *testing.B, id string, p exp.Profile) {
	b.Helper()
	b.ReportAllocs()
	g, err := exp.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tb, err := g(p)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(tb.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
		if i == 0 {
			b.Log("\n" + tb.String())
		}
	}
}

// BenchmarkFig1 regenerates Figure 1: normalized performance of the
// scalable trackers under tailored Perf-Attacks at NRH=500.
func BenchmarkFig1(b *testing.B) { runExp(b, "fig1") }

// BenchmarkFig3 regenerates Figure 3: the per-workload view.
func BenchmarkFig3(b *testing.B) { runExp(b, "fig3") }

// BenchmarkFig4 regenerates Figure 4: attack sensitivity to NRH.
func BenchmarkFig4(b *testing.B) { runExp(b, "fig4") }

// BenchmarkFig5 regenerates Figure 5: LLC-size sensitivity with eight
// channels.
func BenchmarkFig5(b *testing.B) { runExp(b, "fig5") }

// BenchmarkTable2 regenerates Table II from Equations (1)-(5).
func BenchmarkTable2(b *testing.B) { runExp(b, "tab2") }

// BenchmarkFig9 regenerates Figure 9: DAPPER-S under Mapping-Agnostic
// attacks.
func BenchmarkFig9(b *testing.B) { runExp(b, "fig9") }

// BenchmarkFig10 regenerates Figure 10: DAPPER-H under Mapping-Agnostic
// attacks.
func BenchmarkFig10(b *testing.B) { runExp(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11: DAPPER-H on benign applications.
func BenchmarkFig11(b *testing.B) { runExp(b, "fig11") }

// BenchmarkFig12 regenerates Figure 12: DAPPER-H threshold sensitivity.
func BenchmarkFig12(b *testing.B) { runExp(b, "fig12") }

// BenchmarkFig13 regenerates Figure 13: blast radius and DRFMsb.
func BenchmarkFig13(b *testing.B) { runExp(b, "fig13") }

// BenchmarkTable3 regenerates Table III: storage overheads.
func BenchmarkTable3(b *testing.B) { runExp(b, "tab3") }

// BenchmarkTable4 regenerates Table IV: energy overheads.
func BenchmarkTable4(b *testing.B) { runExp(b, "tab4") }

// BenchmarkFig14 regenerates Figure 14: BlockHammer comparison.
func BenchmarkFig14(b *testing.B) { runExp(b, "fig14") }

// BenchmarkFig15 regenerates Figure 15: PARA/PrIDE comparison (benign).
func BenchmarkFig15(b *testing.B) { runExp(b, "fig15") }

// BenchmarkFig16 regenerates Figure 16: PARA/PrIDE under Perf-Attacks.
func BenchmarkFig16(b *testing.B) { runExp(b, "fig16") }

// BenchmarkFig17 regenerates Figure 17: PRAC comparison.
func BenchmarkFig17(b *testing.B) { runExp(b, "fig17") }

// BenchmarkSecurityH regenerates the §VI-C security analysis
// (Equations 6-7 plus Monte-Carlo probes).
func BenchmarkSecurityH(b *testing.B) { runExp(b, "sec-h") }

// BenchmarkSimulatorThroughput measures raw simulator speed (cycles per
// second of host time) on the standard four-core attack scenario, for
// tracking the engine itself.
func BenchmarkSimulatorThroughput(b *testing.B) { runExp(b, "fig11") }

// cycleProfile pins the bench profile to the per-cycle reference engine.
// The plain figure benchmarks above run the default event engine, so
// BenchmarkFigN vs BenchmarkFigNCycleEngine is the engine speedup on
// that figure (make bench-compare tracks it in BENCH_engine.json).
func cycleProfile() exp.Profile {
	p := benchProfile()
	p.Engine = sim.EngineCycle
	return p
}

// BenchmarkFig1CycleEngine regenerates Figure 1 on the per-cycle engine.
func BenchmarkFig1CycleEngine(b *testing.B) { runExpProfile(b, "fig1", cycleProfile()) }

// BenchmarkFig11CycleEngine regenerates Figure 11 on the per-cycle
// engine.
func BenchmarkFig11CycleEngine(b *testing.B) { runExpProfile(b, "fig11", cycleProfile()) }

// BenchmarkFig11Parallel regenerates Figure 11 through the harness
// (collect -> pool -> replay) with one worker per CPU. Compare against
// BenchmarkFig11 to see the fan-out speedup on this machine; a fresh
// pool per iteration keeps the result cache cold so simulations are
// really rerun.
func BenchmarkFig11Parallel(b *testing.B) {
	p := benchProfile()
	for i := 0; i < b.N; i++ {
		pool := harness.NewPool(harness.Options{Workers: runtime.NumCPU()})
		tb, err := exp.Generate("fig11", p, pool)
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatal("fig11 produced no rows")
		}
	}
}
