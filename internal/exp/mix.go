package exp

import (
	"fmt"

	"dapper/internal/harness"
	"dapper/internal/mix"
	"dapper/internal/rh"
)

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
	names := make([]string, len(req.Trackers))
	for i, id := range req.Trackers {
		var err error
		if names[i], err = TrackerName(id); err != nil {
			return nil, err
		}
	}
	p := req.Profile

	// Per-core isolated baselines, one per benign slot per mix. They
	// carry no probes: only their IPC is read.
	baseFuts := make([]map[int]*harness.Future, len(req.Mixes))
	for mi, sp := range req.Mixes {
		if err := sp.Validate(); err != nil {
			return nil, err
		}
		baseFuts[mi] = make(map[int]*harness.Future)
		for _, c := range sp.BenignCores() {
			iso := p.BaseRun()
			iso.Mix, iso.Isolated, iso.IsoCore = sp, true, c
			iso.TelemetryWindow, iso.Attribution = 0, false
			job, err := iso.Job()
			if err != nil {
				return nil, err
			}
			baseFuts[mi][c] = pool.Submit(job)
		}
	}

	// The sweep itself.
	var futs []*harness.Future
	var cells []MixCell
	for ti, id := range req.Trackers {
		for _, nrh := range req.NRHs {
			for mi, sp := range req.Mixes {
				run := p.BaseRun()
				run.Tracker, run.Mode, run.NRH, run.Mix = id, req.Mode, nrh, sp
				run.Audit, run.CountInjected = req.Audit, req.CountInjected
				job, err := run.Job()
				if err != nil {
					return nil, err
				}
				futs = append(futs, pool.Submit(job))
				cells = append(cells, MixCell{
					Tracker: id, TrackerName: names[ti], Mode: req.Mode,
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
