package exp

import (
	"bytes"
	"reflect"
	"testing"

	"dapper/internal/harness"
	"dapper/internal/mix"
	"dapper/internal/rh"
	"dapper/internal/sim"
)

// mixTestSpecs returns a small, diverse heterogeneous set: an
// all-benign mix, a single-attacker mix, and a two-attacker mix with
// the focused hammer — the shapes the homogeneous scenario helpers
// cannot express.
func mixTestSpecs() []mix.Spec {
	hammer := hammerParams()
	return []mix.Spec{
		MustGenerateMix(mix.GenConfig{Cores: 4, Attackers: 0, Intensive: 2, Seed: 11}),
		MustGenerateMix(mix.GenConfig{Cores: 4, Attackers: 1, Intensive: 1, Seed: 12}),
		{Slots: []mix.Slot{
			{Attack: "parametric", Params: hammer},
			{Workload: "464.h264ref"},
			{Attack: "parametric", Params: hammer},
			{Workload: "403.gcc"},
		}},
	}
}

// MustGenerateMix keeps the test specs terse.
func MustGenerateMix(cfg mix.GenConfig) mix.Spec { return mix.MustGenerate(cfg) }

// mixRun is tracker id over sp at nrh on profile p.
func mixRun(p Profile, id string, sp mix.Spec, nrh uint32, audit bool) Run {
	r := p.BaseRun()
	r.Tracker, r.Mix, r.NRH, r.Audit = id, sp, nrh, audit
	return r
}

// isoRun is core's isolated baseline in sp on profile p.
func isoRun(p Profile, sp mix.Spec, core int) Run {
	r := p.BaseRun()
	r.Mix, r.Isolated, r.IsoCore = sp, true, core
	return r
}

func TestMixJobDescriptorsDistinct(t *testing.T) {
	p := Tiny()
	specs := mixTestSpecs()
	keys := map[string]string{}
	add := func(name string, r Run) {
		t.Helper()
		job, err := r.Job()
		if err != nil {
			t.Fatal(err)
		}
		k := job.Desc.Key()
		if prev, dup := keys[k]; dup {
			t.Fatalf("%s aliases %s", name, prev)
		}
		keys[k] = name
	}
	for _, id := range []string{"none", "dapper-h"} {
		for _, sp := range specs {
			add(id+"/"+sp.ID(), mixRun(p, id, sp, 500, false))
		}
	}
	// Same tracker, different NRH and audit flag must also key apart.
	add("nrh125", mixRun(p, "dapper-h", specs[0], 125, false))
	add("audited", mixRun(p, "dapper-h", specs[0], 500, true))
}

func TestMixBaselineSharedAcrossTrackersAndMixes(t *testing.T) {
	p := Tiny()
	// Two mixes that give the same workload the same slot in the same
	// core count share the isolated baseline; the pool then runs it
	// once for the whole sweep.
	a := mix.Spec{Slots: []mix.Slot{{Workload: "429.mcf"}, {Workload: "ycsb_a"}, {Attack: "refresh"}}}
	b := mix.Spec{Slots: []mix.Slot{{Workload: "429.mcf"}, {Workload: "470.lbm"}, {Attack: "streaming"}}}
	key := func(r Run) string {
		t.Helper()
		job, err := r.Job()
		if err != nil {
			t.Fatal(err)
		}
		return job.Desc.Key()
	}
	if key(isoRun(p, a, 0)) != key(isoRun(p, b, 0)) {
		t.Fatal("identical (workload, slot, slot-count) baselines must share a cache key")
	}
	if key(isoRun(p, a, 1)) == key(isoRun(p, a, 0)) {
		t.Fatal("different slots must not share a baseline key")
	}
	if _, err := isoRun(p, a, 2).Job(); err == nil {
		t.Fatal("attacker slot must have no baseline job")
	}
}

// TestEngineEquivalenceMixes extends the event-vs-cycle safety net to
// heterogeneous mixes and multi-attacker placements: for sampled
// mix.Specs, both engines must produce byte-identical Results — and
// identical again on a second event run (determinism).
func TestEngineEquivalenceMixes(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is seconds-long; skipped in -short")
	}
	trackers := []string{"none", "dapper-h", "hydra"}
	for si, sp := range mixTestSpecs() {
		id := trackers[si%len(trackers)]
		t.Run(id+"/"+sp.ID(), func(t *testing.T) {
			mk := func(engine sim.Engine) sim.Result {
				p := Tiny()
				p.Engine = engine
				res, err := mixRun(p, id, sp, 500, true).Exec()
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := mk(sim.EngineCycle)
			got := mk(sim.EngineEvent)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s on mix %s: engines diverge\n cycle: %+v\n event: %+v",
					id, sp.Label(), want, got)
			}
			if again := mk(sim.EngineEvent); !reflect.DeepEqual(got, again) {
				t.Fatalf("%s on mix %s: event engine non-deterministic", id, sp.Label())
			}
		})
	}
}

// TestRunMixSweepDeterministic pins the tentpole's output contract:
// the same request serializes to byte-identical JSONL/CSV reports
// across reruns, across worker counts, and across the event/cycle
// engines.
func TestRunMixSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds-long; skipped in -short")
	}
	specs := mixTestSpecs()[:2]
	render := func(engine sim.Engine, workers int) []byte {
		p := Tiny()
		p.Engine = engine
		pool := harness.NewPool(harness.Options{Workers: workers})
		rows, err := RunMixSweep(MixRequest{
			Trackers: []string{"none", "dapper-h"},
			Mixes:    specs,
			NRHs:     []uint32{500},
			Mode:     rh.VRR1,
			Profile:  p,
		}, pool)
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
		var jsonl, csv bytes.Buffer
		if err := mix.WriteReportJSONL(&jsonl, rows); err != nil {
			t.Fatal(err)
		}
		if err := mix.WriteReportCSV(&csv, rows); err != nil {
			t.Fatal(err)
		}
		return append(jsonl.Bytes(), csv.Bytes()...)
	}
	ref := render(sim.EngineEvent, 8)
	if !bytes.Equal(ref, render(sim.EngineEvent, 1)) {
		t.Fatal("worker count changed the serialized mix report")
	}
	if !bytes.Equal(ref, render(sim.EngineCycle, 8)) {
		t.Fatal("cycle engine changed the serialized mix report")
	}
}

// TestMixSweepMetricsWithinBounds sanity-checks the scored sweep: an
// all-benign mix must score near-ideal speedups, and an attacked mix
// must not score above it.
func TestMixSweepMetricsWithinBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds-long; skipped in -short")
	}
	specs := mixTestSpecs()
	pool := harness.NewPool(harness.Options{})
	rows, err := RunMixSweep(MixRequest{
		Trackers: []string{"none"},
		Mixes:    specs[:2],
		NRHs:     []uint32{500},
		Mode:     rh.VRR1,
		Profile:  Tiny(),
	}, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	benign, attacked := rows[0], rows[1]
	if benign.Attackers != 0 || attacked.Attackers != 1 {
		t.Fatalf("row order drifted: %+v / %+v", benign, attacked)
	}
	if n := float64(len(benign.PerCore)); benign.Weighted <= 0.5*n || benign.Weighted > 1.2*n {
		t.Fatalf("all-benign weighted speedup %v implausible for %v cores", benign.Weighted, n)
	}
	if benign.Fairness <= 0.5 || benign.Fairness > 1 {
		t.Fatalf("all-benign fairness %v implausible", benign.Fairness)
	}
	perBenign := benign.Weighted / float64(len(benign.PerCore))
	perAttacked := attacked.Weighted / float64(len(attacked.PerCore))
	if perAttacked > perBenign+1e-9 {
		t.Fatalf("attacked mix scored better per-core than benign mix: %v > %v", perAttacked, perBenign)
	}
}

// TestMixSecauditTwoAttackerConformance is the conformance case: under
// a 2-attacker focused-hammer mix at NRH 125, the insecure baseline
// must let rows escape while real trackers hold at zero.
func TestMixSecauditTwoAttackerConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("audited runs are seconds-long; skipped in -short")
	}
	sp := mixTestSpecs()[2] // 2x hammer + 2 benign
	if sp.Attackers() != 2 {
		t.Fatalf("spec has %d attackers, want 2", sp.Attackers())
	}
	escapes := func(id string) uint64 {
		p := Tiny()
		res, err := mixRun(p, id, sp, 125, true).Exec()
		if err != nil {
			t.Fatal(err)
		}
		if res.Audit == nil {
			t.Fatalf("%s: audited mix run carried no report", id)
		}
		return res.Audit.Escapes
	}
	if n := escapes("none"); n == 0 {
		t.Fatal("insecure baseline showed no escapes under the 2-attacker hammer mix")
	}
	for _, id := range []string{"dapper-h", "blockhammer"} {
		if n := escapes(id); n != 0 {
			t.Fatalf("tracker %s let %d escapes through under the 2-attacker mix", id, n)
		}
	}
}
