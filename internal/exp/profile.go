package exp

import (
	"fmt"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/rh"
	"dapper/internal/sim"
	"dapper/internal/workloads"
)

// Profile scopes an experiment run: which workloads, which thresholds,
// and how long to simulate. `dapper experiments` prints the profile
// name above the tables it produced.
type Profile struct {
	Name string

	// Workloads is the per-workload set for Figures 1/3/9/10/11.
	Workloads []workloads.Workload
	// SweepWorkloads is the (usually smaller) set averaged in the
	// threshold/LLC sweeps (Figures 4/5/12-17, Table IV).
	SweepWorkloads []workloads.Workload

	// NRH is the default threshold (500); NRHSweep the sensitivity
	// range.
	NRH      uint32
	NRHSweep []uint32

	Warmup  dram.Cycle
	Measure dram.Cycle

	// Geometry for baseline-tracker experiments (full 64K-row banks:
	// their structure-reset penalties depend on it).
	Geometry dram.Geometry
	// DapperGeometry for the DAPPER streaming/refresh experiments:
	// fewer rows per bank so whole-rank attack dynamics (a full
	// streaming pass) fit the measurement window; per-command timing
	// stays physical.
	DapperGeometry dram.Geometry
	// DapperWarmup/DapperMeasure: windows for the scaled-geometry runs.
	DapperWarmup  dram.Cycle
	DapperMeasure dram.Cycle

	Seed uint64

	// Engine selects the simulation loop strategy for every run this
	// profile produces (sim.EngineEvent if empty; -engine flag).
	Engine sim.Engine

	// TelemetryWindow, when >0, attaches the in-sim windowed sampler to
	// every run this profile produces (sim.Config.TelemetryWindow); each
	// Result then carries a Series and descriptors gain a telemetry tag,
	// so telemetry runs never share cache entries with plain ones.
	TelemetryWindow dram.Cycle

	// Attribution, when set, attaches the slowdown-attribution layer to
	// every run this profile produces (sim.Config.Attribution); each
	// Result then carries CPI stacks and the blame matrix, and
	// descriptors gain an attr tag, so attribution runs never share
	// cache entries with plain ones.
	Attribution bool
}

// Quick returns the CI/bench profile: a representative 12-workload set,
// short windows. Shapes (who wins, by what factor) are stable at this
// scale; absolute percentages move a little versus the full profile.
func Quick() Profile {
	rep := workloads.Representative()
	return Profile{
		Name:           "quick",
		Workloads:      rep,
		SweepWorkloads: rep[:3],
		NRH:            500,
		NRHSweep:       []uint32{125, 500, 2000},
		Warmup:         dram.US(100),
		Measure:        dram.US(400),
		Geometry:       dram.Baseline(),
		DapperGeometry: dram.Scaled(2048),
		DapperWarmup:   dram.US(100),
		DapperMeasure:  dram.US(900),
		Seed:           1,
	}
}

// Full returns the paper-scale profile: all 57 workloads, the full
// threshold sweep, longer windows. Hours of CPU; used by
// `dapper experiments -profile full`.
func Full() Profile {
	all := workloads.All()
	return Profile{
		Name:           "full",
		Workloads:      all,
		SweepWorkloads: workloads.Representative()[:6],
		NRH:            500,
		NRHSweep:       []uint32{125, 250, 500, 1000, 2000, 4000},
		Warmup:         dram.US(200),
		Measure:        dram.MS(1),
		Geometry:       dram.Baseline(),
		DapperGeometry: dram.Scaled(2048),
		DapperWarmup:   dram.US(200),
		DapperMeasure:  dram.MS(1.2),
		Seed:           1,
	}
}

// Bench returns the trimmed quick profile `dapper engine-bench` times
// and `dapper experiments -profile bench` runs, so one figure's points
// can be timed by hand (`-exp fig5 -profile bench -jobs 1`) on the
// workload set BENCH_engine.json measures.
func Bench() Profile {
	p := Quick()
	p.Name = "bench"
	p.Workloads = p.Workloads[:4]
	p.SweepWorkloads = p.SweepWorkloads[:2]
	p.NRHSweep = []uint32{125, 500}
	p.Warmup = dram.US(60)
	p.Measure = dram.US(250)
	p.DapperWarmup = dram.US(60)
	p.DapperMeasure = dram.US(500)
	return p
}

// Tiny returns a minimal profile for unit tests of the harness
// plumbing (not for result quality).
func Tiny() Profile {
	rep := workloads.Representative()
	return Profile{
		Name:           "tiny",
		Workloads:      rep[:2],
		SweepWorkloads: rep[:1],
		NRH:            500,
		NRHSweep:       []uint32{500},
		Warmup:         dram.US(5),
		Measure:        dram.US(30),
		Geometry:       dram.Baseline(),
		DapperGeometry: dram.Scaled(1024),
		DapperWarmup:   dram.US(5),
		DapperMeasure:  dram.US(30),
		Seed:           1,
	}
}

// ProfileByName resolves a -profile selector shared by the cmds
// ("tiny", "quick", "full", "bench").
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "tiny":
		return Tiny(), nil
	case "quick":
		return Quick(), nil
	case "full":
		return Full(), nil
	case "bench":
		return Bench(), nil
	default:
		return Profile{}, fmt.Errorf("exp: unknown profile %q (tiny|quick|full|bench)", name)
	}
}

// BaseRun returns the run every profile-driven request starts from:
// the profile's geometry, windows, seed, engine and probes, on the
// insecure baseline at the profile's NRH. Callers set the tracker and
// the workload.
func (p Profile) BaseRun() Run {
	return Run{
		Tracker:         "none",
		NRH:             p.NRH,
		Geometry:        p.Geometry,
		Warmup:          p.Warmup,
		Measure:         p.Measure,
		Seed:            p.Seed,
		Engine:          p.Engine,
		TelemetryWindow: p.TelemetryWindow,
		Attribution:     p.Attribution,
	}
}

// perfAttackRun is the standard Figures 1/3 run: 3 benign copies plus
// the tailored attacker, full geometry.
func (p Profile) perfAttackRun(w workloads.Workload, tracker string, kind attack.Kind, nrh uint32) Run {
	r := p.BaseRun()
	r.Tracker, r.NRH, r.Workload, r.Attack = tracker, nrh, w.Name, AttackPoint{Kind: kind}
	return r
}

// dapperRun is the run for DAPPER experiments (and `dapper batch`).
// Only the streaming attack uses the scaled geometry and its windows: a
// full whole-rank streaming pass must fit the window. Refresh attacks
// and benign runs use the full geometry — the scaled row space would
// concentrate hot rows into few groups and overstate reset-counter
// inheritance.
func (p Profile) dapperRun(w workloads.Workload, tracker string, mode rh.MitigationMode, kind attack.Kind, nrh uint32, benign4 bool) Run {
	r := p.perfAttackRun(w, tracker, kind, nrh)
	r.Mode, r.Benign4 = mode, benign4
	if kind == attack.StreamingSweep {
		r.Geometry, r.Warmup, r.Measure = p.DapperGeometry, p.DapperWarmup, p.DapperMeasure
	}
	return r
}
