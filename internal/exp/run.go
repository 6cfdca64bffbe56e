package exp

import (
	"fmt"

	"dapper/internal/attack"
	"dapper/internal/cpu"
	"dapper/internal/dram"
	"dapper/internal/harness"
	"dapper/internal/rh"
	"dapper/internal/secaudit"
	"dapper/internal/sim"
	"dapper/internal/workloads"
)

// AttackPoint names an attacker: either a named kind or an
// explicit point in the parametric space.
type AttackPoint struct {
	Kind   attack.Kind
	Params attack.Params // consulted when Kind == attack.Parametric
}

// Run is one simulation request: every input a sim.Result depends on.
// It is a plain value, and only its own methods derive anything from
// it — the cache identity (Desc), the traces, the sim.Config and the
// harness job — so a run's key and the simulation it names cannot
// drift apart.
type Run struct {
	// Tracker is a KnownTrackers id ("none" = insecure baseline); Mode
	// the mitigation command it issues. A tracker that ignores the mode
	// runs, and keys, at VRR-BR1.
	Tracker string            `json:"tracker"`
	Mode    rh.MitigationMode `json:"mode"`
	NRH     uint32            `json:"nrh"`

	// Workload names the benign workload: three copies plus the Attack
	// companion core (attack.None = idle), or four copies with Benign4,
	// which takes no attack.
	Workload string      `json:"workload,omitempty"`
	Attack   AttackPoint `json:"attack"`
	Benign4  bool        `json:"benign4,omitempty"`

	Geometry dram.Geometry `json:"geometry"`
	LLCBytes int           `json:"llc_bytes,omitempty"` // 0 = default 8MB

	Warmup  dram.Cycle `json:"warmup"`
	Measure dram.Cycle `json:"measure"`
	Seed    uint64     `json:"seed"`
	Engine  sim.Engine `json:"engine,omitempty"` // event if empty

	// Audit attaches the shadow security oracle (internal/secaudit) and
	// embeds its report in the Result; CountInjected, on audited runs
	// only, also charges tracker counter traffic against its ledger.
	Audit         bool `json:"audit,omitempty"`
	CountInjected bool `json:"count_injected,omitempty"`

	// TelemetryWindow > 0 attaches the in-sim windowed sampler (the
	// Result gains a Series); Attribution the slowdown-attribution layer
	// (CPI stacks and the blame matrix).
	TelemetryWindow dram.Cycle `json:"telemetry_window,omitempty"`
	Attribution     bool       `json:"attribution,omitempty"`
}

// auditTag versions the oracle for cache keys: bump it whenever the
// ledger semantics change so stale audited results never get replayed.
const auditTag = "v1"

// Validate rejects a run that names an unknown tracker or workload, a
// configuration its tracker cannot be built with, or a field its shape
// does not use (which would otherwise silently alias another run's
// key).
func (r Run) Validate() error {
	def, err := lookupTracker(r.Tracker)
	if err != nil {
		return err
	}
	if err := r.Geometry.Validate(); err != nil {
		return err
	}
	if def.check != nil {
		if err := def.check(r.Geometry, r.NRH, r.Mode); err != nil {
			return err
		}
	}
	if r.Warmup < 0 || r.Measure < 0 || r.TelemetryWindow < 0 {
		return fmt.Errorf("exp: negative warmup %d, measure %d or telemetry window %d", r.Warmup, r.Measure, r.TelemetryWindow)
	}
	if r.CountInjected && !r.Audit {
		return fmt.Errorf("exp: counting injected traffic needs an audited run")
	}
	if _, err := workloads.ByName(r.Workload); err != nil {
		return err
	}
	if r.Benign4 && r.Attack.Kind != attack.None {
		return fmt.Errorf("exp: benign4 runs four workload copies and takes no attack (got %s)", r.Attack.Kind)
	}
	if r.Attack.Kind != attack.Parametric {
		if r.Attack.Params != (attack.Params{}) {
			return fmt.Errorf("exp: attack %s takes no parametric point", r.Attack.Kind)
		}
		return nil
	}
	return r.Attack.Params.Validate()
}

// mode is the mitigation mode the run's tracker issues.
func (r Run) mode() rh.MitigationMode {
	if trackerDefs[r.Tracker].modal {
		return r.Mode
	}
	return rh.VRR1
}

// Desc returns the run's deterministic identity for the harness cache
// and deduplication.
func (r Run) Desc() harness.Descriptor {
	d := harness.Descriptor{
		Tracker:   trackerDefs[r.Tracker].name,
		Mode:      r.mode().String(),
		NRH:       r.NRH,
		Workload:  r.Workload,
		Attack:    r.Attack.Kind.String(),
		Benign4:   r.Benign4,
		Geometry:  r.Geometry,
		Timing:    "ddr5",
		LLCBytes:  r.LLCBytes,
		Warmup:    r.Warmup,
		Measure:   r.Measure,
		Seed:      r.Seed,
		Engine:    string(r.Engine.OrDefault()),
		Telemetry: harness.TelemetryTag(r.TelemetryWindow),
		Attr:      harness.AttrTag(r.Attribution),
	}
	if r.Attack.Kind == attack.Parametric {
		d.AttackParams = r.Attack.Params.Canonical()
	}
	if r.Audit {
		d.Audit = auditTag
		if r.CountInjected {
			d.Audit += "+inj"
		}
	}
	return d
}

// traces builds one trace per simulated core.
func (r Run) traces() ([]cpu.Trace, error) {
	w, err := workloads.ByName(r.Workload)
	if err != nil {
		return nil, err
	}
	if r.Benign4 {
		return sim.BenignTraces(w, 4, r.Geometry, r.Seed), nil
	}
	atk, err := attack.NewTrace(attack.Config{
		Geometry: r.Geometry, NRH: r.NRH, Kind: r.Attack.Kind,
		Params: r.Attack.Params, Seed: r.Seed,
	})
	if err != nil {
		return nil, err
	}
	return append(sim.BenignTraces(w, 3, r.Geometry, r.Seed), atk), nil
}

// tracker returns the run's per-channel tracker factory (nil for the
// insecure baseline) and the mode it issues.
func (r Run) tracker() (sim.TrackerFactory, rh.MitigationMode) {
	mode := r.mode()
	build := trackerDefs[r.Tracker].build
	if build == nil {
		return nil, mode
	}
	geo, nrh := r.Geometry, r.NRH
	return func(ch int) rh.Tracker { return build(ch, geo, nrh, mode) }, mode
}

// config validates the run and builds its sim.Config (without the
// audit oracle, which Exec attaches).
func (r Run) config() (sim.Config, error) {
	if err := r.Validate(); err != nil {
		return sim.Config{}, err
	}
	traces, err := r.traces()
	if err != nil {
		return sim.Config{}, err
	}
	factory, mode := r.tracker()
	return sim.Config{
		Geometry:        r.Geometry,
		LLCBytes:        r.LLCBytes,
		Tracker:         factory,
		Mode:            mode,
		Traces:          traces,
		Warmup:          r.Warmup,
		Measure:         r.Measure,
		Engine:          r.Engine,
		TelemetryWindow: r.TelemetryWindow,
		Attribution:     r.Attribution,
	}, nil
}

// Exec simulates the run, with the shadow security oracle attached and
// its report embedded in the Result when the run is audited.
func (r Run) Exec() (sim.Result, error) {
	cfg, err := r.config()
	if err != nil {
		return sim.Result{}, err
	}
	return r.simulate(cfg)
}

// simulate runs cfg, attaching the oracle when the run is audited.
func (r Run) simulate(cfg sim.Config) (sim.Result, error) {
	if !r.Audit {
		return sim.Run(cfg)
	}
	audit, err := secaudit.New(secaudit.Config{
		Geometry:      r.Geometry,
		NRH:           r.NRH,
		Mode:          cfg.Mode,
		CountInjected: r.CountInjected,
	})
	if err != nil {
		return sim.Result{}, err
	}
	cfg.Sink = audit.Sink
	res, err := sim.Run(cfg)
	if err != nil {
		return res, err
	}
	res.Audit = audit.Report()
	return res, nil
}

// Job validates the run and wraps it as a harness job. An unaudited
// run with no telemetry, no attribution and no attacker also describes
// its stream, so the pool can run it in lockstep with the runs that
// share it. The others run alone. An audited, telemetry or attribution
// run depends on more than its stream and tracker. An attacker drives
// the mitigating trackers to act, so whether a follower rides its
// stream turns on the trace seed: on the perf-attack point set, 7 of
// the 96 groups over seeds 1-12 kept a follower, and each group that
// lost it cost more than running its members alone.
func (r Run) Job() (harness.Job, error) {
	if err := r.Validate(); err != nil {
		return harness.Job{}, err
	}
	job := harness.Job{Desc: r.Desc(), Run: r.Exec}
	if !r.Audit && r.TelemetryWindow == 0 && !r.Attribution && !r.hasAttacker() {
		tracker, mode := r.tracker()
		job.Stream = &harness.Stream{
			Key:    streamKey(r),
			Config: r.config,
			Point:  sim.BatchPoint{Tracker: tracker, Mode: mode},
		}
	}
	return job, nil
}
