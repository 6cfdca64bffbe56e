package exp

import (
	"reflect"
	"strings"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/rh"
	"dapper/internal/sim"
)

// TestRegistryComplete: Experiments lists every table and figure of
// the paper's evaluation, once each, in paper order.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"tab1", "fig1", "fig3", "fig4", "fig5", "tab2", "fig9", "fig10",
		"fig11", "fig12", "fig13", "tab3", "tab4", "fig14", "fig15",
		"fig16", "fig17", "sec-h",
	}
	var got []string
	for _, e := range Experiments {
		got = append(got, e.ID)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Experiments = %v, want %v", got, want)
	}
	all, err := Select("all")
	if err != nil || len(all) != len(want) {
		t.Fatalf("Select(all) = %d experiments, %v", len(all), err)
	}
	for _, id := range want {
		if exps, err := Select(id); err != nil || len(exps) != 1 || exps[0].ID != id {
			t.Fatalf("Select(%q) = %v, %v", id, exps, err)
		}
	}
}

// TestLookupErrorListsKnownIDs: selecting an unknown id is an error
// that names it and every known id.
func TestLookupErrorListsKnownIDs(t *testing.T) {
	_, err := Select("fig99")
	if err == nil {
		t.Fatal("expected error")
	}
	for _, frag := range []string{"fig99", "all", "tab1", "fig11", "sec-h"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error should name the bad id and the known ids, missing %q: %v", frag, err)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"}, Notes: []string{"hello 7"}}
	tb.AddRow("1", "2")
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
	for _, want := range []Profile{Tiny(), Quick(), Full()} {
		got, err := ProfileByName(want.Name)
		if err != nil {
			t.Fatalf("%s: %v", want.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s resolved to profile %q", want.Name, got.Name)
		}
	}
	for _, name := range []string{"huge", "bench"} {
		if _, err := ProfileByName(name); err == nil {
			t.Fatalf("unknown profile %q accepted", name)
		}
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
	tb := generate(t, "tab2", Tiny(), nil)
	if len(tb.Rows) != 3 {
		t.Fatalf("tab2 rows = %d", len(tb.Rows))
	}
	if !strings.Contains(tb.String(), "630.6") {
		t.Fatal("tab2 must show the paper's 630.6-iteration row")
	}
}

func TestTab3Values(t *testing.T) {
	tb := generate(t, "tab3", Tiny(), nil)
	s := tb.String()
	if !strings.Contains(s, "DAPPER-H") || !strings.Contains(s, "96.0") {
		t.Fatalf("tab3 missing DAPPER-H 96KB row:\n%s", s)
	}
	if !strings.Contains(s, "DAPPER-H 96KB") {
		t.Fatal("tab3 must recompute 96KB from this repo's config")
	}
}

func TestTab1Static(t *testing.T) {
	tb := generate(t, "tab1", Tiny(), nil)
	if !strings.Contains(tb.String(), "64GB DDR5") {
		t.Fatalf("tab1:\n%s", tb.String())
	}
}

func TestFig1HasSuiteAndAllRows(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	p := Tiny()
	tb := generate(t, "fig1", p, nil)
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
	tb := generate(t, "sec-h", p, nil)
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
	refresh := func(tracker string) point {
		return p.points(p.Workloads, scenario{tracker: tracker, kind: attack.Refresh}, p.NRH, p.NRH, true)[0]
	}
	s, h := refresh("dapper-s"), refresh("dapper-h")
	if s.base != h.base {
		t.Fatal("both trackers must normalize against one baseline")
	}
	exec := func(r Run) sim.Result {
		res, err := r.Exec()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := exec(s.base)
	npS, npH := perf(outcome{s.run, exec(s.run), base}), perf(outcome{h.run, exec(h.run), base})
	if npH < 0.93 {
		t.Fatalf("DAPPER-H refresh-attack perf = %.3f, want near 1.0", npH)
	}
	if npS > npH-0.05 {
		t.Fatalf("DAPPER-S (%.3f) should be clearly worse than DAPPER-H (%.3f)", npS, npH)
	}
}
