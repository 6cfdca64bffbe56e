package exp

import (
	"fmt"
	"strings"
	"testing"

	"dapper/internal/goldentest"
	"dapper/internal/harness"
)

// TestExperimentsGolden pins every table `dapper experiments` prints:
// all 18 experiments at the tiny profile, rendered through a two-worker
// pool, byte for byte in testdata/experiments.txt.golden, followed by
// the pool's unique-run count. The sweep has two thresholds so each
// sweep figure pairs its second threshold's points with baselines run
// at the first. Regenerate only on purpose:
// go test -run TestExperimentsGolden ./internal/exp -update
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("82 simulations; skipped in -short")
	}
	p := Tiny()
	p.NRHSweep = []uint32{125, 500}
	// Generate must submit every point before its first Wait: each
	// progress callback then sees the full unique-run count.
	var totals []int
	pool := harness.NewPool(harness.Options{Workers: 2, OnProgress: func(_, total int) {
		totals = append(totals, total)
	}})
	tbs, err := Generate(Experiments, p, pool)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, tb := range tbs {
		tb.Fprint(&sb)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	unique := pool.Stats().Unique
	for _, total := range totals {
		if total != unique {
			t.Fatalf("progress saw %d of %d unique runs: points were submitted after the first Wait", total, unique)
		}
	}
	fmt.Fprintf(&sb, "%d unique runs\n", unique)
	goldentest.Check(t, "experiments.txt.golden", []byte(sb.String()))
}
