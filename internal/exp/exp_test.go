package exp

import (
	"reflect"
	"strings"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/rh"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the paper's evaluation must be registered.
	want := []string{
		"tab1", "fig1", "fig3", "fig4", "fig5", "tab2", "fig9", "fig10",
		"fig11", "fig12", "fig13", "tab3", "tab4", "fig14", "fig15",
		"fig16", "fig17", "sec-h",
	}
	for _, id := range want {
		if _, err := Lookup(id); err != nil {
			t.Fatalf("missing experiment %s: %v", id, err)
		}
	}
	if len(IDs()) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(IDs()), len(want))
	}
	if len(Order()) != len(want) {
		t.Fatalf("Order() has %d entries", len(Order()))
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("fig99"); err == nil {
		t.Fatal("expected error")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddNote("hello %d", 7)
	s := tb.String()
	for _, frag := range []string{"== x: T ==", "a", "bb", "hello 7"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("render missing %q:\n%s", frag, s)
		}
	}
}

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{Quick(), Full(), Tiny()} {
		if len(p.Workloads) == 0 || len(p.SweepWorkloads) == 0 {
			t.Fatalf("%s profile has no workloads", p.Name)
		}
		if p.Measure == 0 || p.DapperMeasure == 0 {
			t.Fatalf("%s profile has zero windows", p.Name)
		}
		if err := p.Geometry.Validate(); err != nil {
			t.Fatalf("%s geometry: %v", p.Name, err)
		}
		if err := p.DapperGeometry.Validate(); err != nil {
			t.Fatalf("%s dapper geometry: %v", p.Name, err)
		}
	}
	if len(Full().Workloads) != 57 {
		t.Fatal("full profile must cover all 57 workloads")
	}
}

// TestProfileByName: every -profile selector resolves to its
// constructor, and an unknown name is an error, not a zero Profile.
func TestProfileByName(t *testing.T) {
	for _, want := range []Profile{Tiny(), Quick(), Full(), Bench()} {
		got, err := ProfileByName(want.Name)
		if err != nil {
			t.Fatalf("%s: %v", want.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s resolved to profile %q", want.Name, got.Name)
		}
	}
	if _, err := ProfileByName("huge"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestDapperGeoSelection(t *testing.T) {
	p := Quick()
	w := p.Workloads[0]
	if r := p.dapperRun(w, "dapper-h", rh.VRR1, attack.StreamingSweep, p.NRH, false); r.Geometry != p.DapperGeometry || r.Measure != p.DapperMeasure {
		t.Fatal("streaming must use the scaled geometry and its windows")
	}
	if r := p.dapperRun(w, "dapper-h", rh.VRR1, attack.Refresh, p.NRH, false); r.Geometry != p.Geometry || r.Measure != p.Measure {
		t.Fatal("refresh must use the full geometry")
	}
	if r := p.dapperRun(w, "dapper-h", rh.VRR1, attack.None, p.NRH, true); r.Geometry != p.Geometry {
		t.Fatal("benign must use the full geometry")
	}
}

// Analytic-only experiments run instantly and their values are pinned.
func TestTab2Values(t *testing.T) {
	tb, err := Tab2(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("tab2 rows = %d", len(tb.Rows))
	}
	if !strings.Contains(tb.String(), "630.6") {
		t.Fatal("tab2 must show the paper's 630.6-iteration row")
	}
}

func TestTab3Values(t *testing.T) {
	tb, err := Tab3(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	s := tb.String()
	if !strings.Contains(s, "DAPPER-H") || !strings.Contains(s, "96.0") {
		t.Fatalf("tab3 missing DAPPER-H 96KB row:\n%s", s)
	}
	if !strings.Contains(s, "DAPPER-H 96KB") {
		t.Fatal("tab3 must recompute 96KB from this repo's config")
	}
}

func TestTab1Static(t *testing.T) {
	tb, err := Tab1(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.String(), "64GB DDR5") {
		t.Fatalf("tab1:\n%s", tb.String())
	}
}

// Simulation-backed experiments: plumbing checks under the tiny profile
// (shape quality needs the quick or full profile;
// TestShapeDapperHNeutralizesRefreshAttack checks one cheap shape).
func TestSimBackedExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	p := Tiny()
	for _, id := range []string{"fig1", "fig11", "fig12", "tab4"} {
		g, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := g(p)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tb.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

func TestFig1HasSuiteAndAllRows(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	p := Tiny()
	tb, err := Fig1(p)
	if err != nil {
		t.Fatal(err)
	}
	last := tb.Rows[len(tb.Rows)-1]
	if !strings.HasPrefix(last[0], "All") {
		t.Fatalf("fig1 last row = %v, want All", last)
	}
	if len(tb.Header) != 6 { // suite + thrash + 4 trackers
		t.Fatalf("fig1 header = %v", tb.Header)
	}
}

func TestSecHReportsPrevention(t *testing.T) {
	p := Tiny()
	tb, err := SecH(p)
	if err != nil {
		t.Fatal(err)
	}
	s := tb.String()
	if !strings.Contains(s, "Prevention rate") {
		t.Fatalf("sec-h:\n%s", s)
	}
	if !strings.Contains(s, "99.98") && !strings.Contains(s, "99.99") && !strings.Contains(s, "100.0") {
		t.Fatalf("sec-h prevention not in expected range:\n%s", s)
	}
}

// Shape test: DAPPER-H must neutralize the refresh attack that hurts
// DAPPER-S. Uses a reduced quick profile; this is the paper's central
// claim, so it is worth the test time.
func TestShapeDapperHNeutralizesRefreshAttack(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short")
	}
	p := Quick()
	p.Workloads = p.Workloads[:1] // 429.mcf: the most sensitive workload
	p.Measure = dram.US(300)
	p.Warmup = dram.US(80)
	r := newRunner(p)
	w := p.Workloads[0]
	npS, _, _, err := r.dapperNormalized(w, "dapper-s", rh.VRR1, attack.Refresh, p.NRH, false)
	if err != nil {
		t.Fatal(err)
	}
	npH, _, _, err := r.dapperNormalized(w, "dapper-h", rh.VRR1, attack.Refresh, p.NRH, false)
	if err != nil {
		t.Fatal(err)
	}
	if npH < 0.93 {
		t.Fatalf("DAPPER-H refresh-attack perf = %.3f, want near 1.0", npH)
	}
	if npS > npH-0.05 {
		t.Fatalf("DAPPER-S (%.3f) should be clearly worse than DAPPER-H (%.3f)", npS, npH)
	}
}
