package exp

import (
	"fmt"
	"strings"

	"dapper/internal/attack"
	"dapper/internal/harness"
	"dapper/internal/rh"
	"dapper/internal/workloads"
)

// SecurityAttack names one attacker column of the conformance matrix: a
// display name plus the attack point it drives.
type SecurityAttack struct {
	Name  string
	Point AttackPoint
}

// hammerParams is the focused double-row hammer: the hand-written
// Refresh pair (rows 7/1003) concentrated on few banks so each hot row
// is re-activated at the tRC limit — the pattern that maximizes per-row
// activation counts and must produce escapes on the insecure baseline.
func hammerParams() attack.Params {
	return attack.Params{Steady: attack.Pattern{
		HotFrac: 1, HotRows: 2, HotBase: 7, HotStride: 996, Banks: 8,
	}}
}

// AuditAttacks returns the default conformance attack set: the focused
// hammer (the escape forcer), the mapping-agnostic refresh attack, and
// the streaming sweep (the structure thrasher). Together they exercise
// hot-row pressure, many-bank fan-out, and whole-row-space walks.
func AuditAttacks() []SecurityAttack {
	return []SecurityAttack{
		{Name: "hammer", Point: AttackPoint{Kind: attack.Parametric, Params: hammerParams()}},
		{Name: attack.Refresh.String(), Point: AttackPoint{Kind: attack.Refresh}},
		{Name: attack.StreamingSweep.String(), Point: AttackPoint{Kind: attack.StreamingSweep}},
	}
}

// ParseAuditAttack resolves an attack column name: "hammer" is the
// focused parametric hammer, anything else must parse as a hand-written
// attack.Kind.
func ParseAuditAttack(name string) (SecurityAttack, error) {
	if strings.EqualFold(name, "hammer") {
		return SecurityAttack{Name: "hammer", Point: AttackPoint{Kind: attack.Parametric, Params: hammerParams()}}, nil
	}
	k, err := attack.ParseKind(name)
	if err != nil {
		return SecurityAttack{}, fmt.Errorf("exp: audit attack %q: %w (or \"hammer\")", name, err)
	}
	return SecurityAttack{Name: k.String(), Point: AttackPoint{Kind: k}}, nil
}

// SecurityCell identifies one conformance-matrix cell, in sweep order.
type SecurityCell struct {
	Tracker     string // batch id ("hydra")
	TrackerName string // display name ("Hydra"; "none" for the baseline)
	Mode        rh.MitigationMode
	NRH         uint32
	Attack      string
	Workload    string
}

// SecurityRequest describes a tracker x attack x mode x NRH conformance
// sweep: every combination runs the Figures 1/3 co-run shape (three
// benign copies plus the attacker) with the shadow security oracle
// attached, so each cell reports escapes and count margins alongside
// the usual performance counters.
type SecurityRequest struct {
	Trackers []string // ids from KnownTrackers
	Attacks  []SecurityAttack
	Modes    []rh.MitigationMode
	NRHs     []uint32
	Workload workloads.Workload
	Profile  Profile
	// CountInjected charges tracker counter traffic in the oracle ledger
	// (see secaudit.Config).
	CountInjected bool
}

// Jobs expands the request into harness jobs plus the parallel cell
// identities, in deterministic sweep order (tracker-major, then mode,
// then NRH, then attack). Trackers that ignore the mitigation mode
// produce identical descriptors across the mode axis, which the pool
// deduplicates for free.
func (req SecurityRequest) Jobs() ([]harness.Job, []SecurityCell, error) {
	if len(req.Trackers) == 0 || len(req.Attacks) == 0 ||
		len(req.Modes) == 0 || len(req.NRHs) == 0 {
		return nil, nil, fmt.Errorf("exp: security sweep needs at least one tracker, attack, mode and NRH")
	}
	var jobs []harness.Job
	var cells []SecurityCell
	for _, id := range req.Trackers {
		name, err := TrackerName(id)
		if err != nil {
			return nil, nil, err
		}
		for _, mode := range req.Modes {
			for _, nrh := range req.NRHs {
				for _, atk := range req.Attacks {
					run := req.Profile.BaseRun()
					run.Tracker, run.Mode, run.NRH = id, mode, nrh
					run.Workload, run.Attack = req.Workload.Name, atk.Point
					run.Audit, run.CountInjected = true, req.CountInjected
					job, err := run.Job()
					if err != nil {
						return nil, nil, err
					}
					jobs = append(jobs, job)
					cells = append(cells, SecurityCell{
						Tracker: id, TrackerName: name, Mode: mode,
						NRH: nrh, Attack: atk.Name, Workload: req.Workload.Name,
					})
				}
			}
		}
	}
	return jobs, cells, nil
}
