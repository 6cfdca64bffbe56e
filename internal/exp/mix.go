package exp

import (
	"fmt"

	"dapper/internal/attack"
	"dapper/internal/cpu"
	"dapper/internal/dram"
	"dapper/internal/harness"
	"dapper/internal/mix"
	"dapper/internal/rh"
	"dapper/internal/secaudit"
	"dapper/internal/sim"
)

// mixRunSpec is one heterogeneous multi-programmed simulation request:
// the mix-engine counterpart of runSpec. Mix runs always use the
// profile's full geometry — the scaled row space exists to fit a
// whole-rank streaming pass into a short window, which is a
// single-attack concern, not a mix one.
type mixRunSpec struct {
	spec    mix.Spec
	geo     dram.Geometry
	nrh     uint32
	tracker trackerSpec // zero-value Factory = insecure
	warmup  dram.Cycle
	measure dram.Cycle
	seed    uint64
	engine  sim.Engine
	// audit attaches the shadow security oracle; auditInjected charges
	// tracker counter traffic against its ledger.
	audit         bool
	auditInjected bool
	// telemetryWindow >0 attaches the in-sim windowed sampler.
	telemetryWindow dram.Cycle
	// attribution attaches the slowdown-attribution layer.
	attribution bool
}

// descriptor returns the spec's deterministic identity. The Mix field
// carries the full canonical slot encoding, so no two distinct mixes —
// and no mix and homogeneous run — can alias a cached result.
func (s mixRunSpec) descriptor() harness.Descriptor {
	name := s.tracker.Name
	if s.tracker.Factory == nil {
		name = "none"
	}
	return harness.Descriptor{
		Tracker:   name,
		Mode:      s.tracker.Mode.String(),
		NRH:       s.nrh,
		Workload:  s.spec.ID(),
		Attack:    "mix",
		Mix:       s.spec.Canonical(),
		Geometry:  s.geo,
		Timing:    "ddr5",
		Warmup:    s.warmup,
		Measure:   s.measure,
		Seed:      s.seed,
		Engine:    string(s.engine.OrDefault()),
		Audit:     auditTagFor(s.audit, s.auditInjected),
		Telemetry: harness.TelemetryTag(s.telemetryWindow),
		Attr:      harness.AttrTag(s.attribution),
	}
}

// runMix executes one mix spec (with the oracle attached when audited).
func runMix(s mixRunSpec) (sim.Result, error) {
	traces, err := s.spec.Traces(s.geo, s.nrh, s.seed)
	if err != nil {
		return sim.Result{}, err
	}
	cfg := sim.Config{
		Geometry:        s.geo,
		Traces:          traces,
		Warmup:          s.warmup,
		Measure:         s.measure,
		Mode:            s.tracker.Mode,
		Engine:          s.engine,
		TelemetryWindow: s.telemetryWindow,
		Attribution:     s.attribution,
	}
	if s.tracker.Factory != nil {
		cfg.Tracker = s.tracker.Factory
	}
	if !s.audit {
		return sim.Run(cfg)
	}
	audit, err := secaudit.New(secaudit.Config{
		Geometry:      s.geo,
		NRH:           s.nrh,
		Mode:          s.tracker.Mode,
		CountInjected: s.auditInjected,
	})
	if err != nil {
		return sim.Result{}, err
	}
	cfg.Observer = audit.Observer
	res, err := sim.Run(cfg)
	if err != nil {
		return res, err
	}
	res.Audit = audit.Report()
	return res, nil
}

// MixJob builds the harness job running tracker id over one mix spec at
// one NRH. measure overrides the horizon (0 = Profile.Measure) so the
// adversary search's successive-halving rungs can shorten it.
func MixJob(p Profile, trackerID string, spec mix.Spec, nrh uint32,
	mode rh.MitigationMode, measure dram.Cycle, audit, countInjected bool) (harness.Job, error) {
	build, ok := trackerBuilders[trackerID]
	if !ok {
		return harness.Job{}, fmt.Errorf("exp: unknown tracker %q (known: %v)", trackerID, KnownTrackers())
	}
	if err := spec.Validate(); err != nil {
		return harness.Job{}, err
	}
	if measure == 0 {
		measure = p.Measure
	}
	s := mixRunSpec{
		spec:            spec,
		geo:             p.Geometry,
		nrh:             nrh,
		tracker:         build(p.Geometry, nrh, mode),
		warmup:          p.Warmup,
		measure:         measure,
		seed:            p.Seed,
		engine:          p.Engine,
		audit:           audit,
		auditInjected:   countInjected,
		telemetryWindow: p.TelemetryWindow,
		attribution:     p.Attribution,
	}
	return harness.Job{
		Desc: s.descriptor(),
		Run:  func() (sim.Result, error) { return runMix(s) },
	}, nil
}

// MixBaselineJob builds core's per-core isolated baseline: the slot's
// workload alone on the insecure machine, with the exact trace
// placement (slice, seed) it has inside the mix — so the isolated and
// shared instruction streams are identical and the speedup isolates
// contention. The descriptor is tracker-independent ("iso:<core>/<n>"
// mix tag), so one pool shares it across every tracker and NRH of a
// sweep, and across mixes that give the same workload the same slot.
func MixBaselineJob(p Profile, spec mix.Spec, core int, measure dram.Cycle) (harness.Job, error) {
	if err := spec.Validate(); err != nil {
		return harness.Job{}, err
	}
	if measure == 0 {
		measure = p.Measure
	}
	trace, err := spec.IsolatedTrace(p.Geometry, p.Seed, core)
	if err != nil {
		return harness.Job{}, err
	}
	desc := harness.Descriptor{
		Tracker:  "none",
		Mode:     rh.VRR1.String(),
		NRH:      p.NRH,
		Workload: spec.Slots[core].Workload,
		Attack:   attack.None.String(),
		Mix:      fmt.Sprintf("iso:%d/%d", core, len(spec.Slots)),
		Geometry: p.Geometry,
		Timing:   "ddr5",
		Warmup:   p.Warmup,
		Measure:  measure,
		Seed:     p.Seed,
		Engine:   string(p.Engine.OrDefault()),
	}
	cfg := sim.Config{
		Geometry: p.Geometry,
		Traces:   []cpu.Trace{trace},
		Warmup:   p.Warmup,
		Measure:  measure,
		Engine:   p.Engine,
	}
	return harness.Job{
		Desc: desc,
		Run:  func() (sim.Result, error) { return sim.Run(cfg) },
	}, nil
}

// MixCell identifies one tracker x mix x NRH sweep cell, in sweep
// order.
type MixCell struct {
	Tracker     string // batch id ("hydra")
	TrackerName string // display name ("Hydra"; "none" for the baseline)
	Mode        rh.MitigationMode
	NRH         uint32
	// MixIndex points into the request's Mixes slice.
	MixIndex int
	Spec     mix.Spec
}

// MixRequest describes a tracker x mix x NRH sweep (`dapper mix`):
// every combination runs the full heterogeneous spec, and every benign
// slot contributes one isolated-baseline run, content-addressed and
// shared across trackers and NRHs by the pool.
type MixRequest struct {
	Trackers []string // ids from KnownTrackers
	Mixes    []mix.Spec
	NRHs     []uint32
	Mode     rh.MitigationMode
	Profile  Profile
	// Audit attaches the shadow security oracle to every mix run (not
	// to the isolated baselines); CountInjected charges tracker counter
	// traffic in its ledger.
	Audit         bool
	CountInjected bool
}

// RunMixSweep fans the whole request through the pool — isolated
// baselines first (tracker-independent, deduplicated), then every
// tracker x NRH x mix run — and scores each cell into a report row.
// Rows come back in deterministic sweep order (tracker-major, then
// NRH, then mix), with no engine tag and no wall-clock, so a sweep is
// byte-identical across reruns and across the event/cycle engines.
func RunMixSweep(req MixRequest, pool *harness.Pool) ([]mix.ReportRow, error) {
	if len(req.Trackers) == 0 || len(req.Mixes) == 0 || len(req.NRHs) == 0 {
		return nil, fmt.Errorf("exp: mix sweep needs at least one tracker, mix and NRH")
	}
	// Reject unknown trackers before submitting anything: a bad request
	// must not launch (and cache) baseline simulations.
	for _, id := range req.Trackers {
		if _, ok := trackerBuilders[id]; !ok {
			return nil, fmt.Errorf("exp: unknown tracker %q (known: %v)", id, KnownTrackers())
		}
	}
	p := req.Profile

	// Per-core isolated baselines, one per benign slot per mix.
	baseFuts := make([]map[int]*harness.Future, len(req.Mixes))
	for mi, sp := range req.Mixes {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		baseFuts[mi] = make(map[int]*harness.Future)
		for _, c := range sp.BenignCores() {
			job, err := MixBaselineJob(p, sp, c, 0)
			if err != nil {
				return nil, err
			}
			baseFuts[mi][c] = pool.Submit(job)
		}
	}

	// The sweep itself.
	var futs []*harness.Future
	var cells []MixCell
	for _, id := range req.Trackers {
		build := trackerBuilders[id]
		for _, nrh := range req.NRHs {
			ts := build(p.Geometry, nrh, req.Mode)
			name := ts.Name
			if ts.Factory == nil {
				name = "none"
			}
			for mi, sp := range req.Mixes {
				job, err := MixJob(p, id, sp, nrh, req.Mode, 0, req.Audit, req.CountInjected)
				if err != nil {
					return nil, err
				}
				futs = append(futs, pool.Submit(job))
				cells = append(cells, MixCell{
					Tracker: id, TrackerName: name, Mode: req.Mode,
					NRH: nrh, MixIndex: mi, Spec: sp,
				})
			}
		}
	}

	// Collect baselines: alone[core] = isolated IPC.
	alone := make([][]float64, len(req.Mixes))
	for mi, sp := range req.Mixes {
		alone[mi] = make([]float64, len(sp.Slots))
		for _, c := range sp.BenignCores() {
			res, err := baseFuts[mi][c].Wait()
			if err != nil {
				return nil, fmt.Errorf("exp: mix %s baseline core %d: %w", sp.ID(), c, err)
			}
			alone[mi][c] = res.IPC[0]
		}
	}

	rows := make([]mix.ReportRow, len(cells))
	for i, f := range futs {
		res, err := f.Wait()
		cell := cells[i]
		if err != nil {
			return nil, fmt.Errorf("exp: mix %s/%s: %w", cell.Tracker, cell.Spec.ID(), err)
		}
		m := mix.Compute(res, alone[cell.MixIndex], cell.Spec.BenignCores())
		rows[i] = mix.ReportRow{
			Mix: cell.Spec.ID(), Slots: cell.Spec.Label(),
			Cores: len(cell.Spec.Slots), Attackers: cell.Spec.Attackers(),
			Intensive: cell.Spec.Intensive(),
			Tracker:   cell.Tracker, TrackerName: cell.TrackerName,
			Mode: cell.Mode.String(), NRH: cell.NRH, Profile: p.Name,
			Weighted: m.Weighted, Harmonic: m.Harmonic, Fairness: m.Fairness,
			Min: m.Min, Max: m.Max, PerCore: m.PerCore,
		}
		if rep := res.Audit; rep != nil {
			rows[i].Audited = true
			rows[i].Secure = rep.Secure()
			rows[i].Escapes = rep.Escapes
			rows[i].MaxCount = rep.MaxCount
		}
		if attr := res.Attribution; attr != nil {
			rows[i].Attr = true
			// Blame columns aggregate the benign (victim) cores only:
			// the attacker's own wait is not the fairness story.
			for _, c := range cell.Spec.BenignCores() {
				m := attr.Cores[c].Mem
				rows[i].BlameConflict += m.Conflict
				rows[i].BlameInject += m.Inject
				rows[i].BlameMitigation += m.Mitigation
				rows[i].BlameThrottle += m.Throttle
				rows[i].BlameMemWait += m.Total
			}
		}
	}
	return rows, nil
}

// mixSlotFor converts an adversary attack point into the mix slot that
// drives it.
func mixSlotFor(pt AttackPoint) mix.Slot {
	if pt.Kind == attack.Parametric {
		return mix.Slot{Attack: pt.Kind.String(), Params: pt.Params}
	}
	return mix.Slot{Attack: pt.Kind.String()}
}

// AdversaryMixJob is AdversaryJob/SecurityJob against a heterogeneous
// background: the candidate attacker is grafted onto bg as one more
// core, so the worst-case search runs against realistic co-runners
// instead of three copies of one workload. audited attaches the shadow
// oracle (the escapes objective).
func AdversaryMixJob(p Profile, trackerID string, bg mix.Spec, nrh uint32,
	mode rh.MitigationMode, pt AttackPoint, measure dram.Cycle, audited bool) (harness.Job, error) {
	if pt.Kind == attack.Parametric {
		if err := pt.Params.Validate(); err != nil {
			return harness.Job{}, err
		}
	}
	return MixJob(p, trackerID, bg.WithSlot(mixSlotFor(pt)), nrh, mode, measure, audited, false)
}

// AdversaryMixBaselineJob is the matching normalization reference: the
// insecure system running bg plus an idle companion core at the same
// horizon. Tracker- and NRH-independent, so one pool deduplicates it
// across every searched tracker.
func AdversaryMixBaselineJob(p Profile, bg mix.Spec, measure dram.Cycle) (harness.Job, error) {
	idle := mix.Slot{Attack: attack.None.String()}
	return MixJob(p, "none", bg.WithSlot(idle), p.NRH, rh.VRR1, measure, false, false)
}
