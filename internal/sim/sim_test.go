package sim

import (
	"math"
	"runtime"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/core"
	"dapper/internal/cpu"
	"dapper/internal/dram"
	"dapper/internal/rh"
	"dapper/internal/trackers/prac"
	"dapper/internal/trackers/start"
	"dapper/internal/workloads"
)

// quickCfg returns a small, fast configuration.
func quickCfg(traces []cpu.Trace) Config {
	return Config{
		Traces:  traces,
		Warmup:  dram.US(10),
		Measure: dram.US(50),
	}
}

func mustWorkload(t *testing.T, name string) workloads.Workload {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunRequiresTraces(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("expected error with no traces")
	}
}

// TestNegativeWindowsRejected pins that a negative warmup, measure or
// telemetry window is a configuration error, not a panic or a silent
// default.
func TestNegativeWindowsRejected(t *testing.T) {
	g := dram.Baseline()
	for _, mut := range []func(*Config){
		func(c *Config) { c.Warmup = -5 },
		func(c *Config) { c.Measure = -3 },
		func(c *Config) { c.TelemetryWindow = -1 },
	} {
		cfg := quickCfg(BenignTraces(mustWorkload(t, "429.mcf"), 4, g, 1))
		mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run accepted warmup %d, measure %d, window %d", cfg.Warmup, cfg.Measure, cfg.TelemetryWindow)
		}
	}
}

func TestComputeBoundWorkloadHighIPC(t *testing.T) {
	// Every memory record is a dependent blocking load, so even light
	// workloads pay some exposed latency; compute-bound still lands
	// well above memory-bound levels.
	w := mustWorkload(t, "511.povray") // 3 APKI, tiny hot set
	res := MustRun(quickCfg(BenignTraces(w, 4, dram.Baseline(), 1)))
	for i, ipc := range res.IPC {
		if ipc < 1.0 {
			t.Fatalf("core %d IPC = %.2f; compute-bound workload too slow", i, ipc)
		}
	}
}

func TestMemoryBoundWorkloadLowerIPC(t *testing.T) {
	light := MustRun(quickCfg(BenignTraces(mustWorkload(t, "511.povray"), 4, dram.Baseline(), 1)))
	heavy := MustRun(quickCfg(BenignTraces(mustWorkload(t, "429.mcf"), 4, dram.Baseline(), 1)))
	if heavy.IPC[0] >= light.IPC[0] {
		t.Fatalf("mcf IPC %.2f >= povray IPC %.2f", heavy.IPC[0], light.IPC[0])
	}
	if heavy.Counters.ACT == 0 || heavy.Counters.RD == 0 {
		t.Fatal("memory-bound run produced no DRAM traffic")
	}
}

func TestRefreshesHappen(t *testing.T) {
	res := MustRun(quickCfg(BenignTraces(mustWorkload(t, "403.gcc"), 4, dram.Baseline(), 1)))
	// 50us measure / 3.9us tREFI x 2 ranks x 2 channels ~ 50 REFs.
	if res.Counters.REF < 20 {
		t.Fatalf("REF count = %d over 50us", res.Counters.REF)
	}
}

func TestTrackerSeesActivations(t *testing.T) {
	g := dram.Baseline()
	g.RowsPerBank = 2048
	cfg := quickCfg(BenignTraces(mustWorkload(t, "429.mcf"), 4, g, 1))
	cfg.Geometry = g
	cfg.Tracker = func(ch int) rh.Tracker {
		d, _ := core.NewDapperH(ch, core.Config{Geometry: g, NRH: 500})
		return d
	}
	res := MustRun(cfg)
	if res.Tracker.Activations == 0 {
		t.Fatal("tracker saw no activations")
	}
	if res.TrackerNames[0] != "DAPPER-H" {
		t.Fatalf("tracker name = %s", res.TrackerNames[0])
	}
}

func TestCacheThrashSlowsBenign(t *testing.T) {
	// Needs a window long enough for the streaming attacker to churn
	// through the 8MB LLC.
	w := mustWorkload(t, "520.omnetpp")
	geo := dram.Baseline()
	cfg := func(traces []cpu.Trace) Config {
		c := quickCfg(traces)
		c.Warmup = dram.US(100)
		c.Measure = dram.US(400)
		return c
	}
	base := MustRun(cfg(append(BenignTraces(w, 3, geo, 1),
		attack.MustTrace(attack.Config{Geometry: geo, Kind: attack.None}))))
	thrash := MustRun(cfg(append(BenignTraces(w, 3, geo, 1),
		attack.MustTrace(attack.Config{Geometry: geo, Kind: attack.CacheThrash}))))
	np := NormalizedPerf(thrash, base, BenignCores(4))
	if np >= 0.97 {
		t.Fatalf("cache thrashing left normalized perf at %.3f", np)
	}
}

func TestNCTrafficBypassesLLC(t *testing.T) {
	geo := dram.Baseline()
	// Pure attacker run: every access should reach DRAM.
	cfg := quickCfg([]cpu.Trace{attack.MustTrace(attack.Config{Geometry: geo, Kind: attack.Refresh})})
	res := MustRun(cfg)
	if res.Counters.ACT == 0 {
		t.Fatal("NC attacker generated no activations")
	}
	if res.LLCHitRate > 0.01 && res.Counters.RD < 100 {
		t.Fatal("NC traffic appears to be hitting the LLC")
	}
}

func TestAttackerActivationRateIsHigh(t *testing.T) {
	// A lone refresh attacker should sustain close to the tRRD-limited
	// ACT rate (one per ~2.5-6ns per channel).
	geo := dram.Baseline()
	cfg := quickCfg([]cpu.Trace{attack.MustTrace(attack.Config{Geometry: geo, Kind: attack.Refresh})})
	res := MustRun(cfg)
	nsMeasured := float64(res.Cycles) / dram.CyclesPerNs
	rate := float64(res.Counters.ACT) / nsMeasured // ACTs per ns, both channels
	if rate < 0.1 {
		t.Fatalf("attacker ACT rate = %.3f/ns; expected > 0.1/ns", rate)
	}
}

func TestSTARTReservesLLC(t *testing.T) {
	g := dram.Baseline()
	w := mustWorkload(t, "473.astar")
	cfg := quickCfg(BenignTraces(w, 4, g, 1))
	cfg.Tracker = func(ch int) rh.Tracker {
		return start.New(ch, g, 500, 8<<20)
	}
	withStart := MustRun(cfg)
	without := MustRun(quickCfg(BenignTraces(w, 4, g, 1)))
	if withStart.LLCHitRate >= without.LLCHitRate {
		t.Fatalf("halved LLC should lower hit rate: %.3f vs %.3f",
			withStart.LLCHitRate, without.LLCHitRate)
	}
}

func TestPRACTaxSlowsMemoryBoundWork(t *testing.T) {
	g := dram.Baseline()
	w := mustWorkload(t, "429.mcf")
	base := MustRun(quickCfg(BenignTraces(w, 4, g, 1)))
	cfg := quickCfg(BenignTraces(w, 4, g, 1))
	cfg.Tracker = func(ch int) rh.Tracker {
		return prac.New(ch, g, 500)
	}
	withPrac := MustRun(cfg)
	np := NormalizedPerf(withPrac, base, []int{0, 1, 2, 3})
	if np >= 1.0 {
		t.Fatalf("PRAC tax had no effect (normalized %.3f)", np)
	}
	if np < 0.5 {
		t.Fatalf("PRAC tax implausibly large (normalized %.3f)", np)
	}
}

func TestNormalizedPerfHelper(t *testing.T) {
	treat := Result{IPC: []float64{1, 2, 3}}
	base := Result{IPC: []float64{2, 2, 6}}
	got := NormalizedPerf(treat, base, []int{0, 1, 2})
	want := (0.5 + 1.0 + 0.5) / 3
	if got != want {
		t.Fatalf("normalized = %v, want %v", got, want)
	}
	if NormalizedPerf(treat, base, nil) != 0 {
		t.Fatal("empty cores should give 0")
	}
}

// TestNormalizedPerfSkipsZeroBaselineCores is the denominator
// regression: a core with zero baseline IPC used to be skipped in the
// sum but still counted in the denominator, silently deflating the
// mean. It must be skipped in both.
func TestNormalizedPerfSkipsZeroBaselineCores(t *testing.T) {
	treat := Result{IPC: []float64{1, 2, 0.5}}
	base := Result{IPC: []float64{2, 0, 1}}
	got := NormalizedPerf(treat, base, []int{0, 1, 2})
	want := (0.5 + 0.5) / 2 // core 1 contributes to neither sum nor count
	if got != want {
		t.Fatalf("normalized = %v, want %v (zero-baseline core deflated the mean)", got, want)
	}
	if NormalizedPerf(treat, Result{IPC: []float64{0, 0, 0}}, []int{0, 1, 2}) != 0 {
		t.Fatal("all-zero baseline should give 0, not NaN")
	}
}

func TestBenignCores(t *testing.T) {
	c := BenignCores(4)
	if len(c) != 3 || c[0] != 0 || c[2] != 2 {
		t.Fatalf("benign cores = %v", c)
	}
}

func TestBenignTracesDisjointRegions(t *testing.T) {
	g := dram.Baseline()
	w := mustWorkload(t, "429.mcf")
	traces := BenignTraces(w, 4, g, 1)
	slice := g.TotalBytes() / 4
	for i, tr := range traces {
		for k := 0; k < 200; k++ {
			rec := tr.Next()
			if rec.Addr < uint64(i)*slice || rec.Addr >= uint64(i+1)*slice {
				t.Fatalf("core %d address %x outside its region", i, rec.Addr)
			}
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	g := dram.Baseline()
	w := mustWorkload(t, "ycsb_a")
	a := MustRun(quickCfg(BenignTraces(w, 4, g, 7)))
	b := MustRun(quickCfg(BenignTraces(w, 4, g, 7)))
	for i := range a.IPC {
		if a.IPC[i] != b.IPC[i] {
			t.Fatalf("non-deterministic IPC on core %d", i)
		}
	}
}

// TestRunReusesLLCArrays pins that a run hands its LLC arrays to the
// next: a run after an equal one allocates less than the arrays
// themselves (16 bytes a line). Not parallel: TotalAlloc is process
// wide, so it also counts what the runtime or another goroutine
// allocates meanwhile. A run's own bytes are the same every time, so
// the test takes the least of several runs' deltas.
func TestRunReusesLLCArrays(t *testing.T) {
	g := dram.Baseline()
	w := mustWorkload(t, "511.povray")
	cfg := quickCfg(BenignTraces(w, 4, g, 1))
	cfg.Measure = dram.US(5)
	MustRun(cfg)
	got := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		cfg.Traces = BenignTraces(w, 4, g, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		MustRun(cfg)
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	cfg = cfg.withDefaults()
	llcBytes := uint64(16 * cfg.LLCBytes / g.LineBytes)
	if got >= llcBytes {
		t.Fatalf("a repeated run allocated %d bytes, LLC arrays are %d", got, llcBytes)
	}
}
