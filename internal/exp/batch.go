package exp

import (
	"fmt"

	"dapper/internal/attack"
	"dapper/internal/harness"
	"dapper/internal/rh"
	"dapper/internal/workloads"
)

// BatchRequest describes an arbitrary tracker x workload x NRH sweep
// under one attack and one mode (`dapper batch` submits one request per
// mode and attack). Every combination becomes one job; geometry and
// windows follow the same attack-dependent selection the paper's
// DAPPER figures use (dapperRun).
type BatchRequest struct {
	Trackers  []string // ids from KnownTrackers
	Workloads []workloads.Workload
	NRHs      []uint32
	Attack    attack.Kind
	Mode      rh.MitigationMode
	Profile   Profile
	// Audit attaches the shadow security oracle to every run, so each
	// Result carries its escapes and count margins; CountInjected also
	// charges tracker counter traffic against its ledger.
	Audit, CountInjected bool
}

// runs expands the request into validated runs in deterministic sweep
// order (tracker-major, then NRH, then workload).
func (req BatchRequest) runs() ([]Run, error) {
	if len(req.Trackers) == 0 || len(req.Workloads) == 0 || len(req.NRHs) == 0 {
		return nil, fmt.Errorf("exp: batch needs at least one tracker, workload and NRH")
	}
	var runs []Run
	for _, id := range req.Trackers {
		for _, nrh := range req.NRHs {
			for _, w := range req.Workloads {
				run := req.Profile.dapperRun(w, id, req.Mode, req.Attack, nrh, req.Attack == attack.None)
				run.Audit, run.CountInjected = req.Audit, req.CountInjected
				if err := run.Validate(); err != nil {
					return nil, err
				}
				runs = append(runs, run)
			}
		}
	}
	return runs, nil
}

// Jobs expands the request into harness jobs in deterministic sweep
// order (tracker-major, then NRH, then workload).
func (req BatchRequest) Jobs() ([]harness.Job, error) {
	runs, err := req.runs()
	if err != nil {
		return nil, err
	}
	jobs := make([]harness.Job, len(runs))
	for i, run := range runs {
		if jobs[i], err = run.Job(); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// ResolveWorkloads parses a workload selector: "all", "rep"
// (the representative 12), or a comma-free single workload name.
// `dapper batch` splits comma lists before calling this.
func ResolveWorkloads(sel string) ([]workloads.Workload, error) {
	switch sel {
	case "all":
		return workloads.All(), nil
	case "rep":
		return workloads.Representative(), nil
	default:
		w, err := workloads.ByName(sel)
		if err != nil {
			return nil, err
		}
		return []workloads.Workload{w}, nil
	}
}
