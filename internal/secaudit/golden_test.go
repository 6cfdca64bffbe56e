package secaudit

import (
	"bytes"
	"testing"

	"dapper/internal/goldentest"
)

// goldenRows is a fixed three-row matrix: an escaping baseline, a
// secure tracker, and a throttling tracker — covering every column
// including the negative-margin float rendering.
func goldenRows() []MatrixRow {
	return []MatrixRow{
		{
			Tracker: "none", TrackerName: "none", Mode: "VRR-BR1", NRH: 125,
			Attack: "hammer", Workload: "429.mcf", Profile: "tiny",
			Secure: false, Escapes: 32, EscapedRows: 32, MaxCount: 332,
			Margin: -1.656, ACTs: 8372, Refreshes: 32,
		},
		{
			Tracker: "dapper-h", TrackerName: "DAPPER-H", Mode: "RFMsb", NRH: 125,
			Attack: "refresh", Workload: "429.mcf", Profile: "tiny",
			Secure: true, Escapes: 0, EscapedRows: 0, MaxCount: 63,
			Margin: 0.496, ACTs: 19090, InjectedACTs: 0, Mitigations: 6,
			Refreshes: 32,
		},
		{
			Tracker: "blockhammer", TrackerName: "BlockHammer", Mode: "VRR-BR1", NRH: 125,
			Attack: "streaming", Workload: "429.mcf", Profile: "tiny",
			Secure: true, MaxCount: 50, Margin: 0.6, ACTs: 21202,
			Refreshes: 32, Throttled: 149,
		},
	}
}

// TestMatrixGoldenJSONL pins the conformance matrix's JSONL rendering
// byte-exactly — the artifact CI uploads and the equivalence the
// audit-smoke target compares across engines.
func TestMatrixGoldenJSONL(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMatrixJSONL(&buf, goldenRows()); err != nil {
		t.Fatal(err)
	}
	goldentest.Check(t, "matrix.jsonl.golden", buf.Bytes())
}
