package exp

import (
	"fmt"
	"sort"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/harness"
	"dapper/internal/rh"
	"dapper/internal/sim"
	"dapper/internal/workloads"
)

// trackerBuilder builds a trackerSpec for one point of a sweep.
type trackerBuilder func(geo dram.Geometry, nrh uint32, mode rh.MitigationMode) trackerSpec

// trackerBuilders maps flag-friendly tracker ids to builders. "none" is
// the insecure baseline (idle or attacking companion, no mitigation).
var trackerBuilders = map[string]trackerBuilder{
	"none": func(dram.Geometry, uint32, rh.MitigationMode) trackerSpec {
		return trackerSpec{}
	},
	"hydra": func(geo dram.Geometry, nrh uint32, _ rh.MitigationMode) trackerSpec {
		return trackerSpec{Name: "Hydra", Factory: hydraFactory(geo, nrh)}
	},
	"start": func(geo dram.Geometry, nrh uint32, _ rh.MitigationMode) trackerSpec {
		return trackerSpec{Name: "START", Factory: startFactory(geo, nrh, 0)}
	},
	"abacus": func(geo dram.Geometry, nrh uint32, _ rh.MitigationMode) trackerSpec {
		return trackerSpec{Name: "ABACUS", Factory: abacusFactory(geo, nrh)}
	},
	"comet": func(geo dram.Geometry, nrh uint32, _ rh.MitigationMode) trackerSpec {
		return trackerSpec{Name: "CoMeT", Factory: cometFactory(geo, nrh)}
	},
	"blockhammer": func(geo dram.Geometry, nrh uint32, _ rh.MitigationMode) trackerSpec {
		return trackerSpec{Name: "BlockHammer", Factory: blockhammerFactory(geo, nrh)}
	},
	"para": func(geo dram.Geometry, nrh uint32, mode rh.MitigationMode) trackerSpec {
		return trackerSpec{Name: "PARA", Factory: paraFactory(geo, nrh, mode, 11), Mode: mode}
	},
	"pride": func(geo dram.Geometry, nrh uint32, mode rh.MitigationMode) trackerSpec {
		return trackerSpec{Name: "PrIDE", Factory: prideFactory(geo, nrh, mode, 13), Mode: mode}
	},
	"prac": func(geo dram.Geometry, nrh uint32, _ rh.MitigationMode) trackerSpec {
		return trackerSpec{Name: "PRAC", Factory: pracFactory(geo, nrh)}
	},
	"dapper-s": func(geo dram.Geometry, nrh uint32, mode rh.MitigationMode) trackerSpec {
		return trackerSpec{Name: "DAPPER-S", Factory: dapperSFactory(geo, nrh, mode), Mode: mode}
	},
	"dapper-h": func(geo dram.Geometry, nrh uint32, mode rh.MitigationMode) trackerSpec {
		return trackerSpec{Name: "DAPPER-H", Factory: dapperHFactory(geo, nrh, mode), Mode: mode}
	},
}

// KnownTrackers returns the batch-sweepable tracker ids in sorted
// order.
func KnownTrackers() []string {
	out := make([]string, 0, len(trackerBuilders))
	for id := range trackerBuilders {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// TrackerFactory resolves a flag-friendly tracker id into a
// sim.TrackerFactory (nil for "none", which sim treats as the insecure
// baseline), for one-shot commands like `dapper timeline` that bypass
// the sweep machinery.
func TrackerFactory(id string, geo dram.Geometry, nrh uint32, mode rh.MitigationMode) (sim.TrackerFactory, error) {
	build, ok := trackerBuilders[id]
	if !ok {
		return nil, fmt.Errorf("exp: unknown tracker %q (known: %v)", id, KnownTrackers())
	}
	return build(geo, nrh, mode).Factory, nil
}

// BatchRequest describes an arbitrary tracker x workload x NRH sweep
// (`dapper batch`). Every combination becomes one job; geometry and
// windows follow the same attack-dependent selection the paper's
// figures use (dapperGeoFor).
type BatchRequest struct {
	Trackers  []string // ids from KnownTrackers
	Workloads []workloads.Workload
	NRHs      []uint32
	Attack    attack.Kind
	Mode      rh.MitigationMode
	Profile   Profile
}

// specs expands the request into run specs in deterministic sweep
// order (tracker-major, then NRH, then workload). Jobs and
// BatchedSweep both build on this expansion, so the two execution
// paths share descriptors — and therefore cache keys — exactly.
func (req BatchRequest) specs() ([]runSpec, error) {
	if len(req.Trackers) == 0 || len(req.Workloads) == 0 || len(req.NRHs) == 0 {
		return nil, fmt.Errorf("exp: batch needs at least one tracker, workload and NRH")
	}
	p := req.Profile
	geo := dapperGeoFor(p, req.Attack)
	warmup, measure := p.Warmup, p.Measure
	if req.Attack == attack.StreamingSweep {
		warmup, measure = p.DapperWarmup, p.DapperMeasure
	}
	var specs []runSpec
	for _, id := range req.Trackers {
		build, ok := trackerBuilders[id]
		if !ok {
			return nil, fmt.Errorf("exp: unknown tracker %q (known: %v)", id, KnownTrackers())
		}
		for _, nrh := range req.NRHs {
			ts := build(geo, nrh, req.Mode)
			for _, w := range req.Workloads {
				specs = append(specs, runSpec{
					workload:        w,
					geo:             geo,
					nrh:             nrh,
					tracker:         ts,
					attack:          req.Attack,
					benign4:         req.Attack == attack.None,
					warmup:          warmup,
					measure:         measure,
					seed:            p.Seed,
					engine:          p.Engine,
					telemetryWindow: p.TelemetryWindow,
					attribution:     p.Attribution,
				})
			}
		}
	}
	return specs, nil
}

// Jobs expands the request into harness jobs in deterministic sweep
// order (tracker-major, then NRH, then workload).
func (req BatchRequest) Jobs() ([]harness.Job, error) {
	specs, err := req.specs()
	if err != nil {
		return nil, err
	}
	jobs := make([]harness.Job, 0, len(specs))
	for _, s := range specs {
		s := s
		jobs = append(jobs, harness.Job{
			Desc: s.descriptor(),
			Run:  func() (sim.Result, error) { return run(s) },
		})
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
