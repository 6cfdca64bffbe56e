package workloads

import (
	"testing"

	"dapper/internal/cpu"
)

func TestSuiteCountsMatchPaper(t *testing.T) {
	// Paper: 23 + 18 + 4 + 3 + 3 + 6 = 57 workloads.
	want := map[string]int{
		SPEC2006: 23, SPEC2017: 18, TPC: 4, Hadoop: 3, MediaBench: 3, YCSB: 6,
	}
	total := 0
	for suite, n := range want {
		got := len(BySuite(All(), suite))
		if got != n {
			t.Errorf("suite %s has %d workloads, want %d", suite, got, n)
		}
		total += got
	}
	if total != 57 || len(All()) != 57 {
		t.Fatalf("total = %d / %d, want 57", total, len(All()))
	}
}

func TestNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range All() {
		if seen[w.Name] {
			t.Fatalf("duplicate workload %q", w.Name)
		}
		seen[w.Name] = true
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("429.mcf")
	if err != nil {
		t.Fatal(err)
	}
	if w.Suite != SPEC2006 {
		t.Fatalf("suite = %s", w.Suite)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestMcfIsMostIntensive(t *testing.T) {
	// The paper singles out 429.mcf as the most memory-intensive
	// workload (Figure 11 commentary).
	mcf, _ := ByName("429.mcf")
	for _, w := range All() {
		if w.Name == "429.mcf" {
			continue
		}
		if w.AccessPKI > mcf.AccessPKI {
			t.Fatalf("%s (%.0f APKI) exceeds 429.mcf (%.0f)", w.Name, w.AccessPKI, mcf.AccessPKI)
		}
	}
}

func TestMemoryIntensiveGrouping(t *testing.T) {
	mi := MemoryIntensiveSet()
	if len(mi) == 0 || len(mi) >= 57 {
		t.Fatalf("memory-intensive group = %d workloads", len(mi))
	}
	for _, w := range mi {
		if w.RBMPKI < 2 {
			t.Fatalf("%s in group with RBMPKI %.1f", w.Name, w.RBMPKI)
		}
	}
	// Both mcf variants and parest must be in the group.
	names := map[string]bool{}
	for _, w := range mi {
		names[w.Name] = true
	}
	for _, n := range []string{"429.mcf", "505.mcf", "510.parest"} {
		if !names[n] {
			t.Fatalf("%s missing from memory-intensive group", n)
		}
	}
}

func TestRepresentativeCoversAllSuites(t *testing.T) {
	rep := Representative()
	suites := map[string]bool{}
	for _, w := range rep {
		suites[w.Suite] = true
	}
	for _, s := range Suites() {
		if !suites[s] {
			t.Fatalf("representative set misses suite %s", s)
		}
	}
}

func TestMixtureWeightsValid(t *testing.T) {
	for _, w := range All() {
		if w.HotFrac < 0 || w.StreamFrac < 0 || w.HotFrac+w.StreamFrac > 1 {
			t.Fatalf("%s has invalid mixture %f/%f", w.Name, w.HotFrac, w.StreamFrac)
		}
		if w.AccessPKI <= 0 || w.FootprintMB <= 0 || w.HotMB <= 0 {
			t.Fatalf("%s has non-positive parameters", w.Name)
		}
		if w.WriteFrac < 0 || w.WriteFrac > 1 {
			t.Fatalf("%s write frac %f", w.Name, w.WriteFrac)
		}
		if w.HotMB > w.FootprintMB {
			t.Fatalf("%s hot set exceeds footprint", w.Name)
		}
	}
}

func TestTraceAddressesInRange(t *testing.T) {
	w, _ := ByName("429.mcf")
	base := uint64(16) << 30
	tr := NewTrace(w, base, 0, 7)
	for i := 0; i < 10000; i++ {
		rec := tr.Next()
		if rec.Addr < base || rec.Addr >= base+uint64(w.FootprintMB)*MB {
			t.Fatalf("address %x outside region", rec.Addr)
		}
		if rec.Addr&63 != 0 {
			t.Fatalf("address %x not line-aligned", rec.Addr)
		}
		if rec.NonCacheable {
			t.Fatal("benign traces must be cacheable")
		}
	}
}

func TestTraceLimitClampsFootprint(t *testing.T) {
	w, _ := ByName("429.mcf")
	limit := uint64(32 * MB)
	tr := NewTrace(w, 0, limit, 7)
	for i := 0; i < 10000; i++ {
		if rec := tr.Next(); rec.Addr >= limit {
			t.Fatalf("address %x beyond limit", rec.Addr)
		}
	}
}

func TestTraceAccessRateMatchesAccessPKI(t *testing.T) {
	w, _ := ByName("403.gcc") // 8 APKI -> 125 bubbles per access
	tr := NewTrace(w, 0, 0, 3)
	instr, accesses := 0, 0
	for accesses < 2000 {
		rec := tr.Next()
		instr += rec.Bubbles + 1
		accesses++
	}
	gotPKI := float64(accesses) / float64(instr) * 1000
	if gotPKI < w.AccessPKI*0.9 || gotPKI > w.AccessPKI*1.1 {
		t.Fatalf("measured APKI %.1f, want ~%.1f", gotPKI, w.AccessPKI)
	}
}

func TestTraceWriteFraction(t *testing.T) {
	w, _ := ByName("470.lbm") // 45% writes
	tr := NewTrace(w, 0, 0, 11)
	writes := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if tr.Next().IsWrite {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < w.WriteFrac-0.05 || frac > w.WriteFrac+0.05 {
		t.Fatalf("write frac %.2f, want ~%.2f", frac, w.WriteFrac)
	}
}

func TestTraceDeterministic(t *testing.T) {
	w, _ := ByName("ycsb_a")
	a := NewTrace(w, 0, 0, 5)
	b := NewTrace(w, 0, 0, 5)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different traces")
		}
	}
}

func TestTraceSeedsDiffer(t *testing.T) {
	w, _ := ByName("ycsb_a")
	a := NewTrace(w, 0, 0, 5)
	b := NewTrace(w, 0, 0, 6)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next().Addr == b.Next().Addr {
			same++
		}
	}
	if same > 500 {
		t.Fatalf("different seeds matched %d/1000 addresses", same)
	}
}

func TestStreamingWorkloadWalksSequentially(t *testing.T) {
	w, _ := ByName("462.libquantum") // 85% streaming
	tr := NewTrace(w, 0, 0, 9)
	seq := 0
	var last uint64
	const n = 5000
	for i := 0; i < n; i++ {
		rec := tr.Next()
		if rec.Addr == last+64 {
			seq++
		}
		last = rec.Addr
	}
	// With 85% stream probability, ~72% of consecutive pairs are sequential.
	if float64(seq)/n < 0.5 {
		t.Fatalf("sequential pairs = %d/%d, expected streaming behaviour", seq, n)
	}
}

var _ cpu.Trace = (*Trace)(nil)
