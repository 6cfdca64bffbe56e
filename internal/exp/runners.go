package exp

import (
	"fmt"

	"dapper/internal/attack"
	"dapper/internal/rh"
	"dapper/internal/sim"
	"dapper/internal/workloads"
)

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

// runner caches insecure baselines so every tracker in a figure
// normalizes against the same run.
type runner struct {
	p     Profile
	bases map[string]sim.Result
}

func newRunner(p Profile) *runner {
	return &runner{p: p, bases: make(map[string]sim.Result)}
}

// exec satisfies one simulation request according to the profile's
// harness mode: inline (serial), recorded as a job (collect), or served
// from the memoized results (replay). See Generate.
func (r *runner) exec(run Run) (sim.Result, error) {
	h := r.p.hctx
	if h == nil {
		return run.Exec()
	}
	switch h.mode {
	case modeCollect:
		return placeholderResult(), h.record(run)
	case modeReplay:
		return h.lookup(run)
	default:
		return run.Exec()
	}
}

// baseline returns (computing once) the insecure reference run: same
// benign workloads, no tracker, and either an idle companion or, with
// keepAttack, the same attacker. These are the paper's two
// normalizations: the idle companion (Figures 1/3/4/5/11) shows TOTAL
// damage (attacker bandwidth + mitigation side effects); the same
// attacker (Figures 9/10/12-17, Table IV) isolates what the tracker
// ADDS — which is how DAPPER-H can sit at <1% with a hammering core
// active.
func (r *runner) baseline(run Run, keepAttack bool) (sim.Result, error) {
	b := run
	b.Tracker = "none"
	if !keepAttack {
		b.Attack = AttackPoint{}
	}
	// The memo key leaves out the NRH: across a threshold sweep every
	// point normalizes against the first threshold's baseline, and
	// keying it would change the reproduced tables.
	key := fmt.Sprintf("%s|%d|%d|%v|%d|%d|%v", run.Workload, run.Geometry.RowsPerBank,
		run.Geometry.Channels, run.Benign4, run.LLCBytes, run.Measure, b.Attack.Kind)
	if res, ok := r.bases[key]; ok {
		return res, nil
	}
	res, err := r.exec(b)
	if err != nil {
		return res, err
	}
	r.bases[key] = res
	return res, nil
}

// normalized runs the request and its baseline and returns the benign
// cores' normalized performance plus both results.
func (r *runner) normalized(run Run, keepAttack bool) (float64, sim.Result, sim.Result, error) {
	base, err := r.baseline(run, keepAttack)
	if err != nil {
		return 0, sim.Result{}, sim.Result{}, err
	}
	treat, err := r.exec(run)
	if err != nil {
		return 0, sim.Result{}, sim.Result{}, err
	}
	cores := []int{0, 1, 2, 3}
	if !run.Benign4 {
		cores = sim.BenignCores(4)
	}
	return sim.NormalizedPerf(treat, base, cores), treat, base, nil
}

// dapperNormalized runs a dapperRun against the insecure system with
// the same attacker (the tracker-added overhead, the paper's Figures
// 9-17 metric).
func (r *runner) dapperNormalized(w workloads.Workload, tracker string, mode rh.MitigationMode, kind attack.Kind, nrh uint32, benign4 bool) (float64, sim.Result, sim.Result, error) {
	return r.normalized(r.p.dapperRun(w, tracker, mode, kind, nrh, benign4), true)
}
