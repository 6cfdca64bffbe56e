package exp

import (
	"reflect"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/cpu"
	"dapper/internal/dram"
	"dapper/internal/sim"
	"dapper/internal/workloads"
)

// TestEngineEquivalenceAllTrackers is the full safety-net matrix for the
// event engine: every sweepable tracker (the complete internal/trackers
// set plus both DAPPER variants and the insecure baseline), each under a
// benign co-run and its tailored Perf-Attack, must produce a Result
// byte-identical to the per-cycle reference engine — and identical again
// on a second event-engine run (determinism).
func TestEngineEquivalenceAllTrackers(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is seconds-long; skipped in -short")
	}
	geo := dram.Baseline()
	const nrh = 500
	for _, id := range KnownTrackers() {
		kinds := []attack.Kind{attack.None, attack.ForTracker(trackerDefs[id].name)}
		for _, kind := range kinds {
			t.Run(id+"/"+kind.String(), func(t *testing.T) {
				mk := func(engine sim.Engine) sim.Result {
					res, err := Run{
						Tracker:  id,
						NRH:      nrh,
						Workload: "ycsb_a",
						Attack:   AttackPoint{Kind: kind},
						Benign4:  kind == attack.None,
						Geometry: geo,
						Warmup:   dram.US(5),
						Measure:  dram.US(25),
						Seed:     3,
						Engine:   engine,
					}.Exec()
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				want := mk(sim.EngineCycle)
				got := mk(sim.EngineEvent)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s under %s: engines diverge\n cycle: %+v\n event: %+v",
						id, kind, want, got)
				}
				if again := mk(sim.EngineEvent); !reflect.DeepEqual(got, again) {
					t.Fatalf("%s under %s: event engine non-deterministic", id, kind)
				}
			})
		}
	}
}

// twoAttackerScenarios put two focused hammers beside two different
// benign workloads on one four-core system. Every core owns one
// row-aligned quarter of the address space; benign traces stay in their
// quarter, and the hammers range over all of it.
var twoAttackerScenarios = [][]string{
	{"464.h264ref", "544.nab", twoAttackerHammer, twoAttackerHammer},
	{twoAttackerHammer, "tpch6", twoAttackerHammer, "410.bwaves"},
}

const (
	twoAttackerHammer = "hammer" // an attacker core
	twoAttackerNRH    = 125
)

// twoAttackerRun runs tracker id audited at NRH 125 on the tiny profile
// with one trace per entry of cores.
func twoAttackerRun(t *testing.T, id string, cores []string, engine sim.Engine) sim.Result {
	t.Helper()
	p := Tiny()
	geo := p.Geometry
	quarter := geo.TotalBytes() / 4
	quarter -= quarter % uint64(geo.RowBytes)
	traces := make([]cpu.Trace, len(cores))
	for i, name := range cores {
		seed := p.Seed + uint64(i)*0x9E37 + 1
		if name == twoAttackerHammer {
			tr, err := attack.NewTrace(attack.Config{
				Geometry: geo, NRH: twoAttackerNRH, Kind: attack.Hammer, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			traces[i] = tr
			continue
		}
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = workloads.NewTrace(w, uint64(i)*quarter, quarter, seed)
	}
	r := p.BaseRun()
	r.Tracker, r.NRH, r.Audit, r.Engine = id, twoAttackerNRH, true, engine
	r.Workload = cores[1] // validates the run; the traces replace its shape
	cfg, err := r.config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Traces = traces
	res, err := r.simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEngineEquivalenceMixes runs every known tracker on both engines
// over the two-attacker scenarios. The Results must be identical.
func TestEngineEquivalenceMixes(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix is seconds-long; skipped in -short")
	}
	for _, id := range KnownTrackers() {
		t.Run(id, func(t *testing.T) {
			for _, cores := range twoAttackerScenarios {
				want := twoAttackerRun(t, id, cores, sim.EngineCycle)
				got := twoAttackerRun(t, id, cores, sim.EngineEvent)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%v: engines diverge\n cycle: %+v\n event: %+v", cores, want, got)
				}
			}
		})
	}
}

// TestMixSecauditTwoAttackerConformance checks every known tracker
// against two attackers at once: under the two-attacker scenarios the
// insecure baseline must escape, and every real tracker must hold at
// zero escapes.
func TestMixSecauditTwoAttackerConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("audited runs are seconds-long; skipped in -short")
	}
	for _, id := range KnownTrackers() {
		t.Run(id, func(t *testing.T) {
			for _, cores := range twoAttackerScenarios {
				rep := twoAttackerRun(t, id, cores, sim.EngineEvent).Audit
				if rep == nil {
					t.Fatalf("%v: audited run carried no report", cores)
				}
				t.Logf("%v: %d escapes, max count %d", cores, rep.Escapes, rep.MaxCount)
				switch {
				case id == "none" && rep.Escapes == 0:
					t.Fatalf("%v: the insecure baseline did not escape under two hammers", cores)
				case id != "none" && rep.Escapes != 0:
					t.Fatalf("%v: %d escapes under two hammers (max count %d)", cores, rep.Escapes, rep.MaxCount)
				}
			}
		})
	}
}
