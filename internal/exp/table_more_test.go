package exp

import (
	"strings"
	"testing"
)

func TestTableAlignsColumns(t *testing.T) {
	tb := &Table{ID: "t", Title: "x", Header: []string{"short", "a"}}
	tb.AddRow("longer-cell", "1")
	lines := strings.Split(tb.String(), "\n")
	// Header and row start at the same column.
	var hdr, row string
	for _, l := range lines {
		if strings.Contains(l, "short") {
			hdr = l
		}
		if strings.Contains(l, "longer-cell") {
			row = l
		}
	}
	if hdr == "" || row == "" {
		t.Fatalf("render:\n%s", tb.String())
	}
	if strings.Index(hdr, "a") <= strings.Index(hdr, "short") {
		t.Fatal("columns not ordered")
	}
}

func TestTableHandlesExtraCells(t *testing.T) {
	tb := &Table{ID: "t", Title: "x", Header: []string{"a"}}
	tb.AddRow("1", "overflow")
	s := tb.String()
	if !strings.Contains(s, "overflow") {
		t.Fatal("extra cells must still render")
	}
}

func TestPctAndNormFormatting(t *testing.T) {
	if pct(0.1234) != "12.3%" {
		t.Fatalf("pct = %s", pct(0.1234))
	}
	if norm(0.98765) != "0.988" {
		t.Fatalf("norm = %s", norm(0.98765))
	}
}

func TestBaselineCacheReuse(t *testing.T) {
	// The runner must compute one baseline per (workload, geometry,
	// scenario) and reuse it: run the same request twice and confirm the
	// cache is hit (identical Result pointer semantics are not exposed,
	// so check by count of cache entries).
	p := Tiny()
	r := newRunner(p)
	w := p.Workloads[0]
	run := p.perfAttackRun(w, "none", 0, p.NRH)
	if _, err := r.baseline(run, false); err != nil {
		t.Fatal(err)
	}
	if len(r.bases) != 1 {
		t.Fatalf("cache entries = %d", len(r.bases))
	}
	if _, err := r.baseline(run, false); err != nil {
		t.Fatal(err)
	}
	if len(r.bases) != 1 {
		t.Fatal("second baseline call must reuse the cache")
	}
}
