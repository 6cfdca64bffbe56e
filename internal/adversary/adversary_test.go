package adversary

import (
	"bytes"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/exp"
	"dapper/internal/harness"
	"dapper/internal/workloads"
)

func testSpace() Space { return NewSpace(dram.Scaled(2048)) }

func TestSpaceClampIdempotentAndBounded(t *testing.T) {
	s := testSpace()
	r := newRNG(3)
	for trial := 0; trial < 200; trial++ {
		v := make(Vector, len(s.Dims))
		for i := range v {
			v[i] = (r.float() - 0.25) * 1e6 // deliberately wild
		}
		c := s.Clamp(v)
		if !c.Equal(s.Clamp(c)) {
			t.Fatalf("clamp not idempotent: %v -> %v", c, s.Clamp(c))
		}
		for i, d := range s.Dims {
			if c[i] < d.Min || c[i] > d.Max {
				t.Fatalf("dim %s out of bounds after clamp: %v", d.Name, c[i])
			}
		}
		if err := s.Params(c).Validate(); err != nil {
			t.Fatalf("clamped vector maps to invalid params: %v", err)
		}
	}
}

func TestSpaceSampleDeterministic(t *testing.T) {
	s := testSpace()
	a, b := newRNG(11), newRNG(11)
	for i := 0; i < 50; i++ {
		if !s.Sample(a).Equal(s.Sample(b)) {
			t.Fatalf("sample %d diverged for equal seeds", i)
		}
	}
}

func TestSpaceNeighborMovesEveryDim(t *testing.T) {
	s := testSpace()
	v := s.Clamp(Vector{64, 8, 8, 0.5, 4, 16, 0.5, 4})
	for d := range s.Dims {
		up, down := s.Neighbor(v, d, true), s.Neighbor(v, d, false)
		if up.Equal(v) && down.Equal(v) {
			t.Fatalf("dim %s immovable from %v", s.Dims[d].Name, v[d])
		}
		for o := range v {
			if o != d && (up[o] != v[o] || down[o] != v[o]) {
				t.Fatalf("neighbor on dim %s leaked into dim %s", s.Dims[d].Name, s.Dims[o].Name)
			}
		}
	}
	// At the boundary, the blocked direction must return the vector
	// unchanged (the climber skips it) rather than bouncing inside.
	lo := s.Clamp(Vector{1, 1, 1, 0, 1, 1, 0, 0})
	for d := range s.Dims {
		if !s.Neighbor(lo, d, false).Equal(lo) {
			t.Fatalf("dim %s walked below its minimum", s.Dims[d].Name)
		}
	}
}

func TestSpacePeriodMapping(t *testing.T) {
	s := testSpace()
	v := s.Clamp(Vector{64, 8, 8, 0.5, 4, 16, 0.5, 0})
	if p := s.Params(v); p.Period != 0 {
		t.Fatalf("period_log2=0 must mean a static attack, got period %d", p.Period)
	}
	v[dimPeriodLog2] = 3
	p := s.Params(v)
	if p.Period != 1<<10 {
		t.Fatalf("period_log2=3 -> period %d, want %d", p.Period, 1<<10)
	}
	if p.Warm.CacheableFrac != 1 {
		t.Fatal("periodic attacks need the quiet warm phase")
	}
}

// searchOpts returns a search scoped small enough for unit tests:
// tiny-profile windows shrunk further so the whole run is seconds.
func searchOpts(tracker string, budget int, seed uint64) Options {
	p := exp.Tiny()
	p.Warmup = dram.US(2)
	p.Measure = dram.US(16)
	w, err := workloads.ByName("429.mcf")
	if err != nil {
		panic(err)
	}
	return Options{
		TrackerID: tracker,
		Workload:  w,
		Profile:   p,
		Budget:    budget,
		Seed:      seed,
	}
}

func TestSearchRecoversOrBeatsHandCraftedAttack(t *testing.T) {
	cache, _ := harness.NewCache(t.TempDir())
	pool := harness.NewPool(harness.Options{Cache: cache})
	rep, err := Search(searchOpts("hydra", 10, 1), pool)
	pool.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best.Slowdown < rep.Reference.Slowdown {
		t.Fatalf("search lost to the hand-crafted attack: best %.4f < reference %.4f",
			rep.Best.Slowdown, rep.Reference.Slowdown)
	}
	if rep.Reference.Label != "tailored:"+attack.HydraConflict.String() {
		t.Fatalf("reference = %s, want the tailored hydra-conflict attack", rep.Reference.Label)
	}
	if rep.Reference.Slowdown <= 1.0 {
		t.Fatalf("tailored attack shows no damage (slowdown %.4f); horizon too short?", rep.Reference.Slowdown)
	}
	if len(rep.Trace) != rep.Evals || rep.Evals == 0 {
		t.Fatalf("trace/eval mismatch: %d entries, %d evals", len(rep.Trace), rep.Evals)
	}
	// Every named kind must appear as a seed candidate.
	seen := map[string]bool{}
	for _, e := range rep.Trace {
		seen[e.Label] = true
	}
	for _, k := range attack.Kinds() {
		if k == attack.None || k == attack.Parametric {
			continue
		}
		if !seen["kind:"+k.String()] {
			t.Fatalf("seed point kind:%s missing from the search trace", k)
		}
	}
}

func TestSearchReportsAreByteIdentical(t *testing.T) {
	cache, _ := harness.NewCache(t.TempDir())
	run := func() []byte {
		pool := harness.NewPool(harness.Options{Cache: cache})
		rep, err := Search(searchOpts("comet", 14, 7), pool)
		pool.Wait()
		if err != nil {
			t.Fatal(err)
		}
		var jsonl bytes.Buffer
		if err := rep.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		return jsonl.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed and budget produced different report bytes")
	}
}

func TestSearchUnknownTracker(t *testing.T) {
	pool := harness.NewPool(harness.Options{})
	if _, err := Search(searchOpts("no-such-tracker", 4, 1), pool); err == nil {
		t.Fatal("unknown tracker accepted")
	}
}
