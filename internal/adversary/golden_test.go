package adversary

import (
	"bytes"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/goldentest"
)

// goldenReport is a fixed resilience report exercising every serialized
// field: a reference eval, a climbing trace across rungs, an audited
// (escape-objective) entry, and the starvation-floor slowdown.
func goldenReport() *Report {
	refParams, _ := attack.PointFor(attack.HydraConflict, dram.Baseline(), 500)
	randParams := attack.Params{Steady: attack.Pattern{Rows: 37, Banks: 4, HotFrac: 0.25, HotRows: 2, HotBase: 7, HotStride: 996}}
	ref := Eval{
		Candidate: Candidate{Label: "tailored:hydra-conflict", Params: refParams, Canonical: refParams.Canonical()},
		Rung:      2, Measure: dram.US(30), NormPerf: 0.625, Slowdown: 1.6,
	}
	mid := Eval{
		Candidate: Candidate{Label: "rand-7", Params: randParams, Canonical: randParams.Canonical(), Vector: Vector{37, 4, 4, 0.25, 2, 1, 0, 0}},
		Rung:      0, Measure: dram.US(7.5), NormPerf: 0.5, Slowdown: 2,
	}
	best := Eval{
		Candidate: Candidate{Label: "climb-3", Params: randParams, Canonical: randParams.Canonical(), Vector: Vector{37, 4, 4, 0.25, 2, 1, 0, 0}},
		Rung:      2, Measure: dram.US(30), NormPerf: 1e-10, Slowdown: 1e9,
		Escapes: 32, MaxCount: 332,
	}
	return &Report{
		Tracker: "hydra", TrackerName: "Hydra", Workload: "429.mcf",
		NRH: 500, Profile: "tiny", Seed: 1, Budget: 10,
		Objective: "escapes",
		Evals:     3, BaselineRuns: 2,
		// Gain stays zero under the escapes objective (and `gain` is
		// omitted from the JSON, which this fixture pins).
		Reference: ref, Best: best,
		Trace: []Eval{ref, mid, best},
	}
}

// TestReportGoldenJSONL pins the resilience report's JSONL stream
// byte-exactly: eval lines in trace order, then the summary line.
func TestReportGoldenJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenReport().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	goldentest.Check(t, "report.jsonl.golden", buf.Bytes())
}
