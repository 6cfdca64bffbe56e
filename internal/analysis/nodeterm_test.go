package analysis_test

import (
	"testing"

	"dapper/internal/analysis"
	"dapper/internal/analysis/analysistest"
)

func fixtureTiers(pkgPath string) analysis.Tier {
	switch pkgPath {
	case "nodeterm_core":
		return analysis.TierCore
	case "nodeterm_harness":
		return analysis.TierHarness
	}
	return analysis.TierNone
}

func TestNodeterm(t *testing.T) {
	a := analysis.NewNodeterm(analysis.NodetermConfig{TierOf: fixtureTiers})
	analysistest.Run(t, "testdata", a,
		"nodeterm_core", "nodeterm_harness", "nodeterm_exempt")
}

func TestDapperTiers(t *testing.T) {
	cases := []struct {
		pkg  string
		want analysis.Tier
	}{
		{"dapper/internal/sim", analysis.TierCore},
		{"dapper/internal/mem", analysis.TierCore},
		{"dapper/internal/trackers/dapper", analysis.TierCore},
		{"dapper/internal/telemetry", analysis.TierCore},
		{"dapper/internal/adversary", analysis.TierCore},
		{"dapper/internal/sketch", analysis.TierCore},
		// A brand-new package is born under the strict contract.
		{"dapper/internal/shiny", analysis.TierCore},
		{"dapper/internal/harness", analysis.TierHarness},
		{"dapper/internal/exp", analysis.TierHarness},
		{"dapper/cmd/dapper", analysis.TierHarness},
		{"dapper/internal/analysis", analysis.TierNone},
		{"dapper/internal/analysis/load", analysis.TierNone},
		{"dapper/examples/quickstart", analysis.TierNone},
		{"fmt", analysis.TierNone},
	}
	for _, c := range cases {
		if got := analysis.DapperTiers(c.pkg); got != c.want {
			t.Errorf("DapperTiers(%q) = %v, want %v", c.pkg, got, c.want)
		}
	}
}
