package adversary

import (
	"fmt"
	"math"
	"sort"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/exp"
	"dapper/internal/harness"
	"dapper/internal/rh"
	"dapper/internal/sim"
	"dapper/internal/workloads"
)

// Objective selects what the search maximizes.
type Objective string

const (
	// ObjectivePerf hunts worst-case benign-core slowdown (the default:
	// the paper's Perf-Attack axis).
	ObjectivePerf Objective = "perf"
	// ObjectiveEscapes hunts security-guarantee violations: every
	// candidate runs with the shadow oracle (internal/secaudit) attached
	// and candidates are ranked by escapes, then by the maximum hammer
	// count reached, with slowdown as the final tie-break. Against a
	// sound tracker the search should end with Best.Escapes == 0 — the
	// black-box complement of the `dapper batch -audit` sweep.
	ObjectiveEscapes Objective = "escapes"
)

// ParseObjective parses a flag value ("" = perf).
func ParseObjective(s string) (Objective, error) {
	switch Objective(s) {
	case "", ObjectivePerf:
		return ObjectivePerf, nil
	case ObjectiveEscapes:
		return ObjectiveEscapes, nil
	}
	return "", fmt.Errorf("adversary: unknown objective %q (perf|escapes)", s)
}

// Options scopes one search.
type Options struct {
	// TrackerID is the tracker under attack (exp.KnownTrackers id).
	TrackerID string
	Workload  workloads.Workload
	NRH       uint32 // 0 = Profile.NRH
	Mode      rh.MitigationMode
	// Objective is what the search maximizes (ObjectivePerf if empty).
	Objective Objective
	// Profile supplies geometry, windows, workload seed and engine; the
	// full horizon is Profile.Measure. Every evaluation uses
	// Profile.Geometry: a search compares candidates against one fixed
	// system, and the row working-set size is itself a searched
	// dimension, so a candidate that would need the DAPPER figures'
	// scaled banks simply uses fewer rows. To search on a scaled system
	// outright, set Profile.Geometry to dram.Scaled(...).
	Profile exp.Profile
	// Budget bounds candidate evaluations (default 32). The named-kind
	// seed points always run even if they overflow a tiny budget, so the
	// search can never report less than the known attacks.
	Budget int
	// Seed drives sampling and climbing; equal (Seed, Budget) pairs
	// produce byte-identical reports.
	Seed uint64
}

const (
	// rungs is the successive-halving depth: measure/4, measure/2,
	// measure.
	rungs = 3
	// survivors is the number of top candidates hill-climbed at the
	// full horizon.
	survivors = 2
)

func (o Options) withDefaults() Options {
	if o.Budget <= 0 {
		o.Budget = 32
	}
	if o.NRH == 0 {
		o.NRH = o.Profile.NRH
	}
	if o.Objective == "" {
		o.Objective = ObjectivePerf
	}
	return o
}

// minNormPerf floors the normalized-performance ratio: runs that starve
// the benign cores completely report slowdown 1/minNormPerf (1e9)
// rather than an unencodable infinity.
const minNormPerf = 1e-9

// candidate is the mutable search-side view of a Candidate.
type candidate struct {
	Candidate
	slowdown float64
	normPerf float64
	escapes  uint64
	maxCount uint32
}

// better reports whether a strictly outranks b under the objective
// (no tie-break: used by hill-climbing, which only moves on
// improvement).
func (o Objective) better(a, b *candidate) bool {
	if o == ObjectiveEscapes {
		if a.escapes != b.escapes {
			return a.escapes > b.escapes
		}
		if a.maxCount != b.maxCount {
			return a.maxCount > b.maxCount
		}
	}
	return a.slowdown > b.slowdown
}

// evaluator fans candidate evaluations out through the pool and keeps
// the deterministic search trace.
type evaluator struct {
	opts  Options
	pool  *harness.Pool
	trace []Eval
	evals int
	bases int
}

// evalBatch evaluates candidates at one horizon: it submits the
// insecure baseline plus every candidate, waits in submission order,
// and appends one trace entry per candidate. The pool deduplicates the
// baseline across rungs and trackers, and re-visited candidates by
// their descriptor key — but every request still charges the budget,
// keeping eval counts independent of dedup and cache state.
func (ev *evaluator) evalBatch(cands []*candidate, kinds []attack.Kind, measure dram.Cycle, rung int) error {
	// The insecure baseline: an idle companion core at the profile NRH,
	// tracker-independent so the pool deduplicates it across every
	// searched tracker.
	baseRun := ev.opts.Profile.BaseRun()
	baseRun.Measure = measure
	baseRun.Workload = ev.opts.Workload.Name
	baseJob, err := baseRun.Job()
	if err != nil {
		return err
	}
	baseFut := ev.pool.Submit(baseJob)
	ev.bases++
	futs := make([]*harness.Future, len(cands))
	for i, c := range cands {
		pt := exp.AttackPoint{Kind: attack.Parametric, Params: c.Params}
		if kinds != nil && kinds[i] != attack.Parametric {
			pt = exp.AttackPoint{Kind: kinds[i]}
		}
		run := baseRun
		run.Tracker, run.NRH, run.Mode = ev.opts.TrackerID, ev.opts.NRH, ev.opts.Mode
		run.Audit = ev.opts.Objective == ObjectiveEscapes
		run.Attack = pt
		job, err := run.Job()
		if err != nil {
			return err
		}
		futs[i] = ev.pool.Submit(job)
	}
	base, err := baseFut.Wait()
	if err != nil {
		return fmt.Errorf("adversary: baseline: %w", err)
	}
	benign := sim.BenignCores(4)
	for i, f := range futs {
		res, err := f.Wait()
		if err != nil {
			return fmt.Errorf("adversary: %s: %w", cands[i].Label, err)
		}
		np := sim.NormalizedPerf(res, base, benign)
		// A fully-starved run (benign IPC 0) is the worst possible
		// outcome; floor the ratio so it ranks that way with a finite,
		// JSON-encodable slowdown instead of dividing by zero.
		sd := 1 / minNormPerf
		if np > minNormPerf {
			sd = 1 / np
		}
		cands[i].normPerf, cands[i].slowdown = np, sd
		if aud := res.Audit; aud != nil {
			cands[i].escapes, cands[i].maxCount = aud.Escapes, aud.MaxCount
		}
		ev.evals++
		e := Eval{
			Candidate: cands[i].Candidate,
			Rung:      rung, Measure: measure,
			NormPerf: np, Slowdown: sd,
			Escapes: cands[i].escapes, MaxCount: cands[i].maxCount,
		}
		if a := res.Attribution; a != nil {
			m := a.SumMem(benign)
			e.BlameMitigation, e.BlameInject = m.Mitigation, m.Inject
		}
		ev.trace = append(ev.trace, e)
	}
	return nil
}

// sortCands orders by the objective's score descending, breaking exact
// ties on the canonical encoding so selection never depends on
// submission order.
func sortCands(obj Objective, cands []*candidate) {
	sort.SliceStable(cands, func(i, j int) bool {
		if obj.better(cands[i], cands[j]) {
			return true
		}
		if obj.better(cands[j], cands[i]) {
			return false
		}
		return cands[i].Canonical < cands[j].Canonical
	})
}

// Search runs the three-stage black-box optimization against one
// tracker and returns its resilience report. Evaluations flow through
// pool; the caller owns the pool's lifecycle (one pool can serve many
// searches and shares baselines between them).
func Search(opts Options, pool *harness.Pool) (*Report, error) {
	opts = opts.withDefaults()
	name, err := exp.TrackerName(opts.TrackerID)
	if err != nil {
		return nil, err
	}
	space := NewSpace(opts.Profile.Geometry)
	rng := newRNG(opts.Seed)
	full := opts.Profile.Measure
	ev := &evaluator{opts: opts, pool: pool}

	// Stage 0: seed candidates — every named kind as its
	// parametric point (known-attack recovery), then random samples up
	// to the halving entry width N0, sized so screening plus climbing
	// fits the budget: N0 * sum(2^-r) = N0 * (2 - 2^(1-R)).
	var cands []*candidate
	for _, k := range attack.Kinds() {
		if k == attack.None || k == attack.Parametric {
			continue
		}
		p, ok := attack.PointFor(k, opts.Profile.Geometry, opts.NRH)
		if !ok {
			continue
		}
		cands = append(cands, &candidate{Candidate: Candidate{
			Label: "kind:" + k.String(), Params: p, Canonical: p.Canonical(),
		}})
	}
	climbBudget := opts.Budget / 4
	screenWeight := 2 - math.Pow(2, float64(1-rungs))
	n0 := int(float64(opts.Budget-climbBudget) / screenWeight)
	for i := len(cands); i < n0; i++ {
		v := space.Sample(rng)
		cands = append(cands, &candidate{Candidate: Candidate{
			Label:  fmt.Sprintf("rand-%d", i),
			Params: space.Params(v), Canonical: space.Params(v).Canonical(),
			Vector: v,
		}})
	}

	// Reference: the paper's tailored attack at the full horizon,
	// evaluated as its native kind so the record ties into the
	// figure-generation cache entries.
	refKind := attack.ForTracker(name)
	refParams, _ := attack.PointFor(refKind, opts.Profile.Geometry, opts.NRH)
	ref := &candidate{Candidate: Candidate{
		Label: "tailored:" + refKind.String(), Params: refParams,
		Canonical: refParams.Canonical(),
	}}
	if err := ev.evalBatch([]*candidate{ref}, []attack.Kind{refKind}, full, rungs-1); err != nil {
		return nil, err
	}

	// Stage 1: successive halving. Rung r runs at measure/2^(R-1-r);
	// the bottom half drops out after each rung.
	for rung := 0; rung < rungs; rung++ {
		measure := full >> (rungs - 1 - rung)
		if err := ev.evalBatch(cands, nil, measure, rung); err != nil {
			return nil, err
		}
		sortCands(opts.Objective, cands)
		if rung < rungs-1 {
			keep := len(cands) / 2
			if keep < survivors {
				keep = survivors
			}
			if keep > len(cands) {
				keep = len(cands)
			}
			cands = cands[:keep]
		}
	}

	// Stage 2: coordinate hill-climbing on the top vector-bearing
	// survivors at the full horizon, within the remaining budget.
	// Hand-written seed points live outside the projected space (no
	// vector) and are already fully evaluated.
	climbed := 0
	var climbers []*candidate
	for _, c := range cands {
		if c.Vector != nil && len(climbers) < survivors {
			climbers = append(climbers, c)
		}
	}
	for _, start := range climbers {
		cur := start
		for ev.evals < opts.Budget {
			improved := false
			for d := range space.Dims {
				for _, up := range []bool{true, false} {
					if ev.evals >= opts.Budget {
						break
					}
					nv := space.Neighbor(cur.Vector, d, up)
					if nv.Equal(cur.Vector) {
						continue
					}
					nc := &candidate{Candidate: Candidate{
						Label:  fmt.Sprintf("climb-%d", climbed),
						Params: space.Params(nv), Canonical: space.Params(nv).Canonical(),
						Vector: nv,
					}}
					climbed++
					if err := ev.evalBatch([]*candidate{nc}, nil, full, rungs-1); err != nil {
						return nil, err
					}
					if opts.Objective.better(nc, cur) {
						cur = nc
						improved = true
					}
				}
			}
			if !improved {
				break
			}
		}
	}

	// Best: the worst-case over every full-horizon evaluation — the
	// reference is one of them, so Best.Slowdown >= Reference.Slowdown
	// by construction.
	refEval := ev.trace[0]
	best := refEval
	for _, e := range ev.trace {
		if e.Measure != full {
			continue
		}
		a := &candidate{Candidate: e.Candidate, slowdown: e.Slowdown, escapes: e.Escapes, maxCount: e.MaxCount}
		b := &candidate{Candidate: best.Candidate, slowdown: best.Slowdown, escapes: best.Escapes, maxCount: best.MaxCount}
		if opts.Objective.better(a, b) ||
			(!opts.Objective.better(b, a) && e.Canonical < best.Canonical) {
			best = e
		}
	}
	// Gain is a slowdown ratio, meaningful only when slowdown is what
	// the search ranked by; an escapes-objective Best may legitimately
	// slow benign cores less than the reference, so the ratio would
	// read as a regression there.
	gain := 0.0
	if opts.Objective == ObjectivePerf && refEval.Slowdown > 0 {
		gain = best.Slowdown / refEval.Slowdown
	}
	return &Report{
		Tracker: opts.TrackerID, TrackerName: name,
		Workload: opts.Workload.Name, NRH: opts.NRH,
		Profile: opts.Profile.Name, Seed: opts.Seed, Budget: opts.Budget,
		Objective: string(opts.Objective),
		Evals:     ev.evals, BaselineRuns: ev.bases,
		Reference: refEval, Best: best, Gain: gain,
		Trace: ev.trace,
	}, nil
}
