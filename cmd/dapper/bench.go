package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dapper/internal/attack"
	"dapper/internal/exp"
	"dapper/internal/harness"
	"dapper/internal/rh"
	"dapper/internal/sim"
)

// benchExp is the figure engine-bench times. The gate compares against
// the trajectory's last point, so every point must time the same figure.
const benchExp = "fig11"

// benchFile is the append-only trajectory engine-bench keeps under -out.
const benchFile = "BENCH_engine.json"

// report is the BENCH_engine.json schema.
type report struct {
	Experiment   string  `json:"experiment"`
	Profile      string  `json:"profile"`
	CycleSeconds float64 `json:"cycle_seconds"`
	EventSeconds float64 `json:"event_seconds"`
	Speedup      float64 `json:"speedup"`
	// AttrEventSeconds times the event engine with attribution ON and
	// AttrOverhead is its fractional cost over the sink-free run —
	// trajectory data, not gated (the gated quantity is the
	// detached-sink overhead hiding in EventSeconds).
	AttrEventSeconds float64 `json:"attr_event_seconds,omitempty"`
	AttrOverhead     float64 `json:"attr_overhead,omitempty"`
	// Batched-runner throughput: the same NRH sweep timed as serial
	// independent event-engine runs vs one exp.BatchedSweep pass.
	// BatchSpeedup = BatchIndepSeconds / BatchSeconds; LockstepPoints
	// counts how many of BatchPoints shadowed the lead's tracker calls
	// instead of running a full simulation.
	BatchPoints       int     `json:"batch_points,omitempty"`
	LockstepPoints    int     `json:"lockstep_points,omitempty"`
	BatchIndepSeconds float64 `json:"batch_indep_seconds,omitempty"`
	BatchSeconds      float64 `json:"batch_seconds,omitempty"`
	BatchSpeedup      float64 `json:"batch_speedup,omitempty"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	// GoVersion and CPUModel record the machine behind the point (the
	// ratios are portable across machines, the seconds are not).
	GoVersion string `json:"go_version"`
	CPUModel  string `json:"cpu_model"`
	Timestamp string `json:"timestamp"`
}

// loadTrajectory reads the append-only report history at path.
func loadTrajectory(path string) ([]report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var traj []report
	if err := json.Unmarshal(raw, &traj); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return traj, nil
}

// cpuModel returns the "model name" line of /proc/cpuinfo, or "" where
// that file is unreadable.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// benchProfile is the shared bench profile (exp.Bench, the one
// `dapper experiments -profile bench` runs) pinned to one engine.
func benchProfile(engine sim.Engine, attr bool) exp.Profile {
	p := exp.Bench()
	p.Engine = engine
	p.Attribution = attr
	return p
}

// timeRun times the benchmark figure repeat times and returns the
// fastest run: best-of-N is the standard way to keep scheduler noise out
// of a percent-level gate.
func timeRun(engine sim.Engine, attr bool, repeat int) (float64, error) {
	exps, err := exp.Select(benchExp)
	if err != nil {
		return 0, err
	}
	best := 0.0
	for i := 0; i < repeat; i++ {
		//dapper:wallclock this command's purpose is timing the two engines against each other
		start := time.Now()
		tbs, err := exp.Generate(exps, benchProfile(engine, attr), nil)
		if err != nil {
			return 0, err
		}
		if len(tbs[0].Rows) == 0 {
			return 0, fmt.Errorf("%s produced no rows under %s engine", benchExp, engine)
		}
		//dapper:wallclock closes the engine timing above
		if s := time.Since(start).Seconds(); i == 0 || s < best {
			best = s
		}
	}
	return best, nil
}

// batchSweepRequest is the batched-runner benchmark: one tracker
// (DAPPER-H, the paper's subject) across an 8-point NRH sweep of one
// bench workload under benign load. All points share one trace stream,
// so the pool runs the lead fully and the other seven shadow it in
// lockstep; the independent path simulates all 8.
func batchSweepRequest() exp.BatchRequest {
	p := benchProfile(sim.EngineEvent, false)
	return exp.BatchRequest{
		Trackers:  []string{"dapper-h"},
		Workloads: p.Workloads[:1],
		NRHs:      []uint32{500, 1000, 2000, 4000, 8000, 16000, 32000, 64000},
		Attack:    attack.None,
		Mode:      rh.VRR1,
		Profile:   p,
	}
}

// timeBatch times the sweep both ways (best of repeat, with at least
// five samples per side — the passes are sub-second, so GC pauses and
// scheduler noise need more samples to fall out of a best-of minimum
// than the whole-figure engine timings do), verifies the batched
// results are byte-identical to the independent ones, and returns the
// two timings plus the point/lockstep counts.
func timeBatch(repeat int) (indepS, batchS float64, points, lockstep int, err error) {
	if repeat < 5 {
		repeat = 5
	}
	req := batchSweepRequest()
	jobs, err := req.Jobs()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	indep := make([]sim.Result, len(jobs))
	for i := 0; i < repeat; i++ {
		runtime.GC() // keep earlier passes' garbage out of this timing
		//dapper:wallclock this command's purpose is timing the batched runner against independent runs
		start := time.Now()
		for j, job := range jobs {
			res, runErr := job.Run()
			if runErr != nil {
				return 0, 0, 0, 0, runErr
			}
			indep[j] = res
		}
		//dapper:wallclock closes the independent-sweep timing above
		if s := time.Since(start).Seconds(); i == 0 || s < indepS {
			indepS = s
		}
	}

	var records []harness.Record
	var stats exp.BatchStats
	for i := 0; i < repeat; i++ {
		runtime.GC() // keep earlier passes' garbage out of this timing
		//dapper:wallclock times the batched sweep pass
		start := time.Now()
		records, stats, err = exp.BatchedSweep(req, harness.Options{Workers: 1})
		if err != nil {
			return 0, 0, 0, 0, err
		}
		//dapper:wallclock closes the batched-sweep timing above
		if s := time.Since(start).Seconds(); i == 0 || s < batchS {
			batchS = s
		}
	}

	if len(records) != len(indep) {
		return 0, 0, 0, 0, fmt.Errorf("batched sweep produced %d records for %d jobs", len(records), len(indep))
	}
	for i := range records {
		want, err := json.Marshal(indep[i])
		if err != nil {
			return 0, 0, 0, 0, err
		}
		got, err := json.Marshal(records[i].Result)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if !bytes.Equal(want, got) {
			return 0, 0, 0, 0, fmt.Errorf("batched result %s diverges from independent run; timing would be meaningless", records[i].Desc.String())
		}
	}
	return indepS, batchS, stats.Points, stats.Lockstep, nil
}

// runEngineBench times fig11 under both simulation engines (the
// per-cycle reference loop and the event-driven time-skip loop), plus
// the batched sweep runner against independent runs on an 8-point NRH
// sweep, and appends the report to the BENCH_engine.json trajectory
// under -out.
//
// -check compares the fresh measurement against the LAST recorded
// point instead of appending, and fails if the event-over-cycle speedup
// ratio regressed by more than 10%, if the batched-runner speedup
// regressed by more than 10%, or — the tighter gate — if the normalized
// event-engine time (the inverse of the engine ratio) grew by more than
// -attr-budget. The ratios — not wall-clock seconds — are the gated
// quantities, so the checks hold on machines faster or slower than the
// one that recorded the baseline, and each measurement is timed -repeat
// times with the best kept. No benchmarked run attaches a controller
// sink (no audit, telemetry or attribution), so the -attr-budget gate
// is the detached-sink overhead budget: the nil-sink checks the
// controller leaves on its hot paths must stay under it. The
// attribution-ON cost is recorded (attr_event_seconds / attr_overhead)
// as trajectory data, ungated.
func runEngineBench(c *cli) error {
	if c.repeat < 1 {
		return flagErr("repeat", fmt.Errorf("must be at least 1, got %d", c.repeat))
	}
	fmt.Fprintf(c.stderr, "benchmarking %s: cycle engine...\n", benchExp)
	cycleS, err := timeRun(sim.EngineCycle, false, c.repeat)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stderr, "benchmarking %s: event engine...\n", benchExp)
	eventS, err := timeRun(sim.EngineEvent, false, c.repeat)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stderr, "benchmarking %s: event engine, attribution on...\n", benchExp)
	attrS, err := timeRun(sim.EngineEvent, true, c.repeat)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stderr, "benchmarking batched sweep runner (8-point NRH sweep)...\n")
	indepS, batchS, points, lockstep, err := timeBatch(c.repeat)
	if err != nil {
		return err
	}

	r := report{
		Experiment:        benchExp,
		Profile:           "bench",
		CycleSeconds:      cycleS,
		EventSeconds:      eventS,
		Speedup:           cycleS / eventS,
		AttrEventSeconds:  attrS,
		AttrOverhead:      attrS/eventS - 1,
		BatchPoints:       points,
		LockstepPoints:    lockstep,
		BatchIndepSeconds: indepS,
		BatchSeconds:      batchS,
		BatchSpeedup:      indepS / batchS,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		GoVersion:         runtime.Version(),
		CPUModel:          cpuModel(),
		//dapper:wallclock benchmark records are timestamped provenance, never cache-keyed
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	path := filepath.Join(c.out, benchFile)

	if c.check {
		traj, err := loadTrajectory(path)
		if err != nil {
			return fmt.Errorf("no baseline to check against: %w", err)
		}
		if len(traj) == 0 {
			return fmt.Errorf("empty trajectory in %s; record a baseline first", path)
		}
		base := traj[len(traj)-1]
		fmt.Fprintf(c.stdout, "%s: engine speedup %.2fx now vs %.2fx baseline, batch speedup %.2fx now vs %.2fx baseline (%s)\n",
			benchExp, r.Speedup, base.Speedup, r.BatchSpeedup, base.BatchSpeedup, base.Timestamp)
		if base.Speedup <= 0 {
			return fmt.Errorf("baseline speedup %g is not positive; re-record it", base.Speedup)
		}
		if r.Speedup < 0.9*base.Speedup {
			return fmt.Errorf("check FAILED: speedup regressed >10%% (%.2fx -> %.2fx); the event engine lost its advantage",
				base.Speedup, r.Speedup)
		}
		// The detached-sink overhead gate: no benchmarked run attaches a
		// sink, so any growth in normalized event-engine time
		// (cycle-time units, hence machine-portable) is nil-sink cost
		// left on the hot paths.
		if overhead := base.Speedup/r.Speedup - 1; overhead > c.attrBudget {
			return fmt.Errorf("check FAILED: detached-sink event-engine overhead %.1f%% exceeds the %.1f%% budget (normalized time %.4f -> %.4f)",
				100*overhead, 100*c.attrBudget, 1/base.Speedup, 1/r.Speedup)
		}
		// The batched-runner gate activates once the trajectory has a
		// recorded batch point (legacy baselines predate it).
		if base.BatchSpeedup > 0 && r.BatchSpeedup < 0.9*base.BatchSpeedup {
			return fmt.Errorf("check FAILED: batched-runner speedup regressed >10%% (%.2fx -> %.2fx) on the %d-point sweep",
				base.BatchSpeedup, r.BatchSpeedup, points)
		}
		// Name the floors that decided. The engine ratio must clear both
		// of its gates; the budget is the tighter one whenever it is
		// under 1/0.9 - 1 (11.1%), as at the default -attr-budget 0.02.
		engineFloor, engineGate := 0.9, "10% under baseline"
		if f := 1 / (1 + c.attrBudget); f > engineFloor {
			engineFloor, engineGate = f, fmt.Sprintf("the %.1f%% detached-sink budget", 100*c.attrBudget)
		}
		fmt.Fprintf(c.stdout, "check passed: engine speedup %.2fx >= %.2fx (%s), batch speedup %.2fx >= %.2fx (10%% under baseline; %d/%d lockstep), attr-on costs %.1f%% (ungated)\n",
			r.Speedup, engineFloor*base.Speedup, engineGate, r.BatchSpeedup, 0.9*base.BatchSpeedup, lockstep, points, 100*r.AttrOverhead)
		return nil
	}

	traj, err := loadTrajectory(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	traj = append(traj, r)
	data, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		return err
	}
	if err := c.writeFile(benchFile, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	}); err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "%s: cycle %.2fs, event %.2fs, speedup %.2fx, attr-on +%.1f%%, batch %.2fx (%d/%d lockstep, %.2fs -> %.2fs) -> %s (%d points)\n",
		benchExp, cycleS, eventS, r.Speedup, 100*r.AttrOverhead,
		r.BatchSpeedup, lockstep, points, indepS, batchS, path, len(traj))
	return nil
}
