package mix

import (
	"math"
	"reflect"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/sim"
	"dapper/internal/workloads"
)

// --- generation: determinism, stratification, placement ---

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Cores: 6, Attackers: 2, Intensive: 2, Seed: 42}
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed generated different specs:\n %+v\n %+v", a, b)
	}
	if a.ID() != b.ID() || a.Canonical() != b.Canonical() {
		t.Fatalf("same spec, different identity: %s vs %s", a.ID(), b.ID())
	}
	c := MustGenerate(GenConfig{Cores: 6, Attackers: 2, Intensive: 2, Seed: 43})
	if reflect.DeepEqual(a, c) {
		t.Fatal("adjacent seeds generated identical specs (rng not consumed?)")
	}
	if a.ID() == c.ID() {
		t.Fatalf("distinct specs share ID %s", a.ID())
	}
	// Seeds 0 and 1 must not collapse onto one stream (a plain nonzero
	// clamp would): `dapper mix` derives mix i's seed as seed+i, so a
	// collision silently halves the swept scenario count.
	z := MustGenerate(GenConfig{Cores: 6, Attackers: 2, Intensive: 2, Seed: 0})
	o := MustGenerate(GenConfig{Cores: 6, Attackers: 2, Intensive: 2, Seed: 1})
	if reflect.DeepEqual(z, o) {
		t.Fatal("seeds 0 and 1 generated identical specs")
	}
}

func TestGenerateStratificationRespectsIntensityGrouping(t *testing.T) {
	for _, want := range []int{0, 1, 2, 3} {
		for seed := uint64(1); seed <= 20; seed++ {
			sp := MustGenerate(GenConfig{Cores: 4, Attackers: 1, Intensive: want, Seed: seed})
			if got := sp.Intensive(); got != want {
				t.Fatalf("seed %d: %d intensive slots, want %d (spec %s)", seed, got, want, sp.Label())
			}
			if got := sp.Attackers(); got != 1 {
				t.Fatalf("seed %d: %d attackers, want 1", seed, got)
			}
			if len(sp.BenignCores())+len(sp.AttackerCores()) != 4 {
				t.Fatalf("seed %d: cores unaccounted for in %s", seed, sp.Label())
			}
		}
	}
	// The seeded random split must stay within [0, benign].
	for seed := uint64(1); seed <= 30; seed++ {
		sp := MustGenerate(GenConfig{Cores: 4, Attackers: 1, Intensive: -1, Seed: seed})
		if n := sp.Intensive(); n < 0 || n > 3 {
			t.Fatalf("seed %d: random split produced %d intensive slots of 3 benign", seed, n)
		}
	}
}

func TestGeneratePlacement(t *testing.T) {
	// Pinned attacker cores land exactly where asked.
	sp := MustGenerate(GenConfig{
		Cores: 5, Attackers: 2, AttackerCores: []int{0, 3}, Intensive: 1, Seed: 9,
	})
	if got := sp.AttackerCores(); !reflect.DeepEqual(got, []int{0, 3}) {
		t.Fatalf("attacker cores %v, want [0 3]", got)
	}
	// Random placement actually moves across seeds.
	moved := false
	first := MustGenerate(GenConfig{Cores: 8, Attackers: 2, Seed: 1}).AttackerCores()
	for seed := uint64(2); seed <= 12; seed++ {
		if !reflect.DeepEqual(first, MustGenerate(GenConfig{Cores: 8, Attackers: 2, Seed: seed}).AttackerCores()) {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("attacker placement never moved over 11 seeds")
	}
}

func TestGenerateRejectsBadConfigs(t *testing.T) {
	for name, cfg := range map[string]GenConfig{
		"too many attackers": {Cores: 2, Attackers: 3},
		"intensive overflow": {Cores: 3, Attackers: 2, Intensive: 2},
		"benign template":    {Cores: 4, Attackers: 1, Attack: Slot{Workload: "429.mcf"}},
		"pin out of range":   {Cores: 4, Attackers: 1, AttackerCores: []int{7}},
		"pin duplicated":     {Cores: 4, Attackers: 2, AttackerCores: []int{1, 1}},
		"pin count mismatch": {Cores: 4, Attackers: 2, AttackerCores: []int{1}},
	} {
		if _, err := Generate(cfg); err == nil {
			t.Fatalf("%s: expected error, got none", name)
		}
	}
}

// --- spec identity and validation ---

func TestSpecValidate(t *testing.T) {
	good := Spec{Slots: []Slot{
		{Workload: "429.mcf"},
		{Attack: "refresh"},
		{Attack: "parametric", Params: attack.Params{Steady: attack.Pattern{HotFrac: 1, HotRows: 2}}},
	}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, sp := range map[string]Spec{
		"empty":            {},
		"both set":         {Slots: []Slot{{Workload: "429.mcf", Attack: "refresh"}}},
		"unknown workload": {Slots: []Slot{{Workload: "no-such"}}},
		"unknown attack":   {Slots: []Slot{{Attack: "no-such"}}},
		"bad params": {Slots: []Slot{{Attack: "parametric",
			Params: attack.Params{Steady: attack.Pattern{HotFrac: math.NaN()}}}}},
		"params on a workload": {Slots: []Slot{{Workload: "429.mcf",
			Params: attack.Params{Steady: attack.Pattern{HotRows: 2}}}}},
		"params on a native kind": {Slots: []Slot{{Attack: "refresh",
			Params: attack.Params{Steady: attack.Pattern{HotRows: 2}}}}},
	} {
		if err := sp.Validate(); err == nil {
			t.Fatalf("%s: expected validation error", name)
		}
	}
}

func TestCanonicalDistinguishesParametricPoints(t *testing.T) {
	a := Spec{Slots: []Slot{{Attack: "parametric", Params: attack.Params{Steady: attack.Pattern{HotRows: 2}}}}}
	b := Spec{Slots: []Slot{{Attack: "parametric", Params: attack.Params{Steady: attack.Pattern{HotRows: 3}}}}}
	if a.Canonical() == b.Canonical() || a.ID() == b.ID() {
		t.Fatal("distinct parametric points alias in the canonical encoding")
	}
}

func TestWithSlotAppendsWithoutMutating(t *testing.T) {
	sp := Spec{Slots: []Slot{{Workload: "429.mcf"}}}
	ext := sp.WithSlot(Slot{Attack: "refresh"})
	if len(sp.Slots) != 1 || len(ext.Slots) != 2 {
		t.Fatalf("WithSlot mutated the receiver: %d/%d slots", len(sp.Slots), len(ext.Slots))
	}
	if ext.Slots[1].Attack != "refresh" {
		t.Fatalf("appended slot lost: %+v", ext.Slots[1])
	}
}

// --- slices: disjoint, aligned, in bounds; traces confined ---

func TestSlicesDisjointAlignedInBounds(t *testing.T) {
	for _, geo := range []dram.Geometry{
		dram.Baseline(),
		// Non-power-of-two row size (valid per dram.Geometry.Validate):
		// alignment must round down to a row multiple, not bitmask.
		func() dram.Geometry {
			g := dram.Baseline()
			g.RowBytes = 3 * 8192
			return g
		}(),
	} {
		testSlicesFor(t, geo)
	}
}

func testSlicesFor(t *testing.T, geo dram.Geometry) {
	t.Helper()
	for cores := 1; cores <= 8; cores++ {
		sp := MustGenerate(GenConfig{Cores: cores, Attackers: cores / 3, Seed: uint64(cores)})
		slices := sp.Slices(geo)
		if len(slices) != cores {
			t.Fatalf("%d cores, %d slices", cores, len(slices))
		}
		for i, r := range slices {
			if r.Limit == 0 {
				t.Fatalf("core %d has an empty slice", i)
			}
			if r.Base%uint64(geo.RowBytes) != 0 || r.Limit%uint64(geo.RowBytes) != 0 {
				t.Fatalf("core %d slice not row-aligned: base=%d limit=%d", i, r.Base, r.Limit)
			}
			if r.Base+r.Limit > geo.TotalBytes() {
				t.Fatalf("core %d slice overflows capacity: base=%d limit=%d", i, r.Base, r.Limit)
			}
			if i > 0 {
				prev := slices[i-1]
				if prev.Base+prev.Limit > r.Base {
					t.Fatalf("cores %d/%d overlap: [%d,%d) vs [%d,%d)",
						i-1, i, prev.Base, prev.Base+prev.Limit, r.Base, r.Base+r.Limit)
				}
			}
		}
	}
}

func TestBenignTracesConfinedToSlices(t *testing.T) {
	geo := dram.Baseline()
	sp := MustGenerate(GenConfig{Cores: 4, Attackers: 1, Intensive: 2, Seed: 5})
	traces, err := sp.Traces(geo, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	slices := sp.Slices(geo)
	for _, c := range sp.BenignCores() {
		for k := 0; k < 5000; k++ {
			rec := traces[c].Next()
			if rec.Addr < slices[c].Base || rec.Addr >= slices[c].Base+slices[c].Limit {
				t.Fatalf("core %d addr %#x outside slice [%#x,%#x)",
					c, rec.Addr, slices[c].Base, slices[c].Base+slices[c].Limit)
			}
		}
	}
}

func TestIsolatedTraceMatchesMixPlacement(t *testing.T) {
	geo := dram.Baseline()
	sp := Spec{Slots: []Slot{
		{Workload: "429.mcf"}, {Workload: "ycsb_a"}, {Attack: "refresh"}, {Workload: "470.lbm"},
	}}
	traces, err := sp.Traces(geo, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{0, 1, 3} {
		iso, err := sp.IsolatedTrace(geo, 7, c)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 1000; k++ {
			a, b := traces[c].Next(), iso.Next()
			if a != b {
				t.Fatalf("core %d record %d diverges between mix and isolated trace: %+v vs %+v", c, k, a, b)
			}
		}
	}
	if _, err := sp.IsolatedTrace(geo, 7, 2); err == nil {
		t.Fatal("attacker slot must have no isolated baseline")
	}
	if _, err := sp.IsolatedTrace(geo, 7, 9); err == nil {
		t.Fatal("out-of-range core must error")
	}
}

func TestTracesDeterministic(t *testing.T) {
	geo := dram.Baseline()
	sp := MustGenerate(GenConfig{Cores: 4, Attackers: 2, Attack: Slot{Attack: "parametric",
		Params: attack.Params{Steady: attack.Pattern{HotFrac: 0.5, HotRows: 2, Rows: 64}}}, Seed: 3})
	a, err := sp.Traces(geo, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sp.Traces(geo, 500, 11)
	if err != nil {
		t.Fatal(err)
	}
	for c := range a {
		for k := 0; k < 2000; k++ {
			if ra, rb := a[c].Next(), b[c].Next(); ra != rb {
				t.Fatalf("core %d record %d not reproducible: %+v vs %+v", c, k, ra, rb)
			}
		}
	}
}

// --- metrics: hand-computed expectations ---

func TestComputeHandComputed(t *testing.T) {
	shared := sim.Result{IPC: []float64{0.5, 0.2, 1.0, 0.4}}
	alone := []float64{1.0, 0.4, 0, 0.8}
	m := Compute(shared, alone, []int{0, 1, 3})
	// speedups: 0.5, 0.5, 0.5 -> WS 1.5, HS 3/(2+2+2)=0.5, fairness 1.
	if !reflect.DeepEqual(m.Cores, []int{0, 1, 3}) {
		t.Fatalf("counted cores %v", m.Cores)
	}
	if got, want := m.Weighted, 1.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("weighted %v, want %v", got, want)
	}
	if got, want := m.Harmonic, 0.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("harmonic %v, want %v", got, want)
	}
	if m.Fairness != 1 || m.Min != 0.5 || m.Max != 0.5 {
		t.Fatalf("fairness/min/max = %v/%v/%v, want 1/0.5/0.5", m.Fairness, m.Min, m.Max)
	}

	// Unequal slowdowns: speedups 0.8 and 0.2.
	shared = sim.Result{IPC: []float64{0.8, 0.1}}
	alone = []float64{1.0, 0.5}
	m = Compute(shared, alone, []int{0, 1})
	if got, want := m.Weighted, 1.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("weighted %v, want %v", got, want)
	}
	// HS = 2 / (1/0.8 + 1/0.2) = 2 / 6.25 = 0.32
	if got, want := m.Harmonic, 0.32; math.Abs(got-want) > 1e-12 {
		t.Fatalf("harmonic %v, want %v", got, want)
	}
	if got, want := m.Fairness, 0.25; math.Abs(got-want) > 1e-12 {
		t.Fatalf("fairness %v, want %v", got, want)
	}

	// Zero-alone cores are skipped from every aggregate, including the
	// implicit denominator (the NormalizedPerf bug class).
	m = Compute(sim.Result{IPC: []float64{0.5, 0.7}}, []float64{1.0, 0}, []int{0, 1})
	if len(m.PerCore) != 1 || m.Weighted != 0.5 || m.Harmonic != 0.5 {
		t.Fatalf("zero-alone core not skipped cleanly: %+v", m)
	}

	// A starved core zeroes the harmonic mean and fairness floor.
	m = Compute(sim.Result{IPC: []float64{0, 0.5}}, []float64{1.0, 1.0}, []int{0, 1})
	if m.Harmonic != 0 || m.Min != 0 || m.Fairness != 0 {
		t.Fatalf("starved core: %+v", m)
	}

	// No scorable cores at all.
	m = Compute(sim.Result{IPC: []float64{1}}, []float64{0}, []int{0})
	if m.Weighted != 0 || m.Harmonic != 0 || m.Fairness != 0 || len(m.PerCore) != 0 {
		t.Fatalf("empty metrics not zero: %+v", m)
	}
}

// TestGenerateCoversWholeTable sanity-checks the sampler actually
// reaches both strata of the 57-workload table.
func TestGenerateCoversWholeTable(t *testing.T) {
	seen := map[string]bool{}
	for seed := uint64(1); seed <= 200; seed++ {
		sp := MustGenerate(GenConfig{Cores: 4, Attackers: 0, Intensive: 2, Seed: seed})
		for _, s := range sp.Slots {
			seen[s.Workload] = true
		}
	}
	hi, lo := 0, 0
	for name := range seen {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if w.MemoryIntensive() {
			hi++
		} else {
			lo++
		}
	}
	if hi < 10 || lo < 10 {
		t.Fatalf("sampler coverage too narrow: %d intensive, %d non-intensive distinct workloads", hi, lo)
	}
}
