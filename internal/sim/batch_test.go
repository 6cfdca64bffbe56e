package sim

import (
	"bytes"
	"encoding/json"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/core"
	"dapper/internal/cpu"
	"dapper/internal/dram"
	"dapper/internal/rh"
	"dapper/internal/trackers/abacus"
	"dapper/internal/trackers/blockhammer"
	"dapper/internal/trackers/hydra"
	"dapper/internal/trackers/prac"
	"dapper/internal/trackers/start"
)

// batchPoint names one cell of the batched equivalence matrix.
type namedBatchPoint struct {
	name  string
	point BatchPoint
}

// batchPoints builds the sweep: an insecure lead, a guaranteed-lockstep
// twin, three table trackers (lockstep under benign load, diverging
// under attack), and one point per fallback reason (LLC reservation,
// ACT tax, throttler, mode mismatch). The lead, the twin (a live
// follower) and the low-NRH Hydra (a diverged follower) build their
// trackers wrapped in releaseCounters, each logged in *built.
func batchPoints(g dram.Geometry, built *[]*releaseCounter) []namedBatchPoint {
	return []namedBatchPoint{
		{"nop-lead", BatchPoint{Tracker: counted(NopFactory, built)}},
		{"nop-twin", BatchPoint{Tracker: counted(NopFactory, built)}},
		{"hydra", BatchPoint{Tracker: func(ch int) rh.Tracker {
			return hydra.New(ch, g, 500)
		}}},
		// NRH 16 transitions row groups to per-row tracking within any
		// workload's first few microseconds; the injected counter fetches
		// disagree with the insecure lead's empty stream, so this point
		// always exercises the divergence fallback.
		{"hydra-low-diverges", BatchPoint{Tracker: counted(func(ch int) rh.Tracker {
			return hydra.New(ch, g, 16)
		}, built)}},
		{"dapper-h", BatchPoint{Tracker: func(ch int) rh.Tracker {
			d, err := core.NewDapperH(ch, core.Config{Geometry: g, NRH: 500})
			if err != nil {
				panic(err)
			}
			return d
		}}},
		{"abacus", BatchPoint{Tracker: func(ch int) rh.Tracker {
			return abacus.New(ch, g, 500)
		}}},
		{"start-llc", BatchPoint{Tracker: func(ch int) rh.Tracker {
			return start.New(ch, g, 500, 8<<20)
		}}},
		{"prac-tax", BatchPoint{Tracker: func(ch int) rh.Tracker {
			return prac.New(ch, g, 500)
		}}},
		{"blockhammer-throttle", BatchPoint{Tracker: func(ch int) rh.Tracker {
			return blockhammer.New(ch, g, 500)
		}}},
		{"nop-vrr2", BatchPoint{Mode: rh.VRR2}},
	}
}

// releaseCounter wraps a tracker to check who releases it: the run or
// batch that built it must call Release exactly once, and no call may
// reach the tracker after that.
type releaseCounter struct {
	rh.Tracker
	releases int
	late     bool // a call arrived after Release
}

func (c *releaseCounter) use() { c.late = c.late || c.releases > 0 }

func (c *releaseCounter) Name() string { c.use(); return c.Tracker.Name() }

func (c *releaseCounter) OnActivate(now dram.Cycle, loc dram.Loc, buf []rh.Action) []rh.Action {
	c.use()
	return c.Tracker.OnActivate(now, loc, buf)
}

func (c *releaseCounter) Tick(now dram.Cycle, buf []rh.Action) []rh.Action {
	c.use()
	return c.Tracker.Tick(now, buf)
}

func (c *releaseCounter) Stats() rh.Stats { c.use(); return c.Tracker.Stats() }

func (c *releaseCounter) Release() { c.releases++ }

// counted wraps f so that every tracker it builds is a releaseCounter
// appended to *built.
func counted(f TrackerFactory, built *[]*releaseCounter) TrackerFactory {
	return func(ch int) rh.Tracker {
		c := &releaseCounter{Tracker: f(ch)}
		*built = append(*built, c)
		return c
	}
}

// checkReleased fails unless every tracker in built was released
// exactly once and saw no call after its release.
func checkReleased(t *testing.T, built []*releaseCounter) {
	t.Helper()
	for i, c := range built {
		if c.releases != 1 || c.late {
			t.Errorf("tracker %d (%s): released %d times, called after release: %v",
				i, c.Tracker.Name(), c.releases, c.late)
		}
	}
}

func batchBaseConfig(t *testing.T, g dram.Geometry, hammer bool) Config {
	t.Helper()
	var traces []cpu.Trace
	if hammer {
		traces = append(BenignTraces(mustWorkload(t, "ycsb_a"), 3, g, 3),
			attack.MustTrace(attack.Config{Geometry: g, NRH: 500, Kind: attack.Refresh}))
	} else {
		traces = BenignTraces(mustWorkload(t, "429.mcf"), 4, g, 3)
	}
	return Config{
		Geometry: g,
		Traces:   traces,
		Warmup:   dram.US(20),
		Measure:  dram.US(60),
	}
}

// TestEngineEquivalenceBatched is the batched runner's safety net:
// every Result RunBatch serves (the lead's and each lockstep point's)
// must be byte-identical (JSON) to an independent sim.Run of the same
// configuration, and every other point must come back without one,
// for its caller to run. The benign half exercises lockstep shadowing
// (trackers that stay quiet emit the lead's empty action stream); the
// hammer half forces divergence (mitigating trackers disagree with the
// insecure lead's stream). Both halves also check tracker ownership:
// the lead, a live follower and a diverged follower are each released
// once, after their last read, by RunBatch or by the independent Run.
func TestEngineEquivalenceBatched(t *testing.T) {
	g := dram.Baseline()
	for _, hammer := range []bool{false, true} {
		name := "benign"
		if hammer {
			name = "hammer"
		}
		t.Run(name, func(t *testing.T) {
			var built []*releaseCounter
			pts := batchPoints(g, &built)
			points := make([]BatchPoint, len(pts))
			for i := range pts {
				points[i] = pts[i].point
			}
			results, outcomes, err := RunBatch(batchBaseConfig(t, g, hammer), points)
			if err != nil {
				t.Fatal(err)
			}

			lockstep := 0
			for i := range pts {
				t.Run(pts[i].name, func(t *testing.T) {
					if !outcomes[i].Served() {
						if results[i].IPC != nil {
							t.Fatalf("unserved point (outcome %+v) carries a Result", outcomes[i])
						}
						return
					}
					cfg := batchBaseConfig(t, g, hammer)
					cfg.Tracker = pts[i].point.Tracker
					cfg.Mode = pts[i].point.Mode
					want := MustRun(cfg)
					wantJS, err := json.Marshal(want)
					if err != nil {
						t.Fatal(err)
					}
					gotJS, err := json.Marshal(results[i])
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(wantJS, gotJS) {
						t.Fatalf("batched result diverges from independent run (outcome %+v):\n want %s\n got  %s",
							outcomes[i], wantJS, gotJS)
					}
				})
				if outcomes[i].Lockstep {
					lockstep++
				}
			}

			// The fallback taxonomy must hold regardless of workload.
			wantReasons := map[string]FallbackReason{
				"nop-lead":             FallbackLead,
				"start-llc":            FallbackLLCReserve,
				"prac-tax":             FallbackActTax,
				"blockhammer-throttle": FallbackThrottler,
				"nop-vrr2":             FallbackMode,
			}
			for i := range pts {
				if want, ok := wantReasons[pts[i].name]; ok {
					if outcomes[i].Lockstep || outcomes[i].Reason != want {
						t.Errorf("%s: outcome %+v, want reason %q", pts[i].name, outcomes[i], want)
					}
				}
			}
			// The nop twin emits exactly the lead's (empty) stream: always
			// lockstep. And any point whose tracker acted differently from
			// the insecure lead must have been detected and rerun.
			for i := range pts {
				if pts[i].name == "nop-twin" && !outcomes[i].Lockstep {
					t.Errorf("nop-twin fell back: %+v", outcomes[i])
				}
				if outcomes[i].Lockstep &&
					(results[i].Tracker.Mitigations != 0 || results[i].Tracker.InjectedReads != 0) {
					t.Errorf("%s: lockstep point emitted actions the insecure lead could not have: %+v",
						pts[i].name, results[i].Tracker)
				}
			}
			for i := range pts {
				if pts[i].name == "hydra-low-diverges" && outcomes[i].Reason != FallbackDiverged {
					t.Errorf("hydra-low-diverges: outcome %+v, want divergence fallback", outcomes[i])
				}
			}
			if !hammer && lockstep < 2 {
				t.Errorf("benign scenario replayed only %d points in lockstep; want >= 2", lockstep)
			}
			// Two channels each: the lead and twin in the batch and
			// in their independent runs, the diverged point in the batch.
			if len(built) != 10 {
				t.Errorf("%d counted trackers built, want 10", len(built))
			}
			checkReleased(t, built)
		})
	}
}

// TestRunBatchRejectsSink pins that a base Config with a Sink,
// telemetry or attribution is an error, not silently dropped: followers
// have no controller stream to tap.
func TestRunBatchRejectsSink(t *testing.T) {
	g := dram.Baseline()
	for name, set := range map[string]func(*Config){
		"sink":        func(c *Config) { c.Sink = func(int) rh.Sink { return nil } },
		"telemetry":   func(c *Config) { c.TelemetryWindow = dram.US(10) },
		"attribution": func(c *Config) { c.Attribution = true },
	} {
		cfg := batchBaseConfig(t, g, false)
		set(&cfg)
		if _, _, err := RunBatch(cfg, []BatchPoint{{}, {}}); err == nil {
			t.Errorf("RunBatch accepted a base Config with %s", name)
		}
	}
}

// TestEngineEquivalenceBatchedAllThrottlers pins the no-lead path:
// when every point throttles there is no shared stream, so RunBatch
// simulates nothing and hands every point back unserved.
func TestEngineEquivalenceBatchedAllThrottlers(t *testing.T) {
	g := dram.Baseline()
	mk := func(nrh uint32) TrackerFactory {
		return func(ch int) rh.Tracker {
			return blockhammer.New(ch, g, nrh)
		}
	}
	points := []BatchPoint{{Tracker: mk(500)}, {Tracker: mk(1000)}}
	results, outcomes, err := RunBatch(batchBaseConfig(t, g, true), points)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if outcomes[i].Served() || outcomes[i].Reason != FallbackThrottler {
			t.Errorf("point %d: outcome %+v, want throttler fallback", i, outcomes[i])
		}
		if results[i].IPC != nil {
			t.Errorf("point %d: a throttler got a Result without a lead", i)
		}
	}
}

// TestRunBatchLeadWithoutFollowers pins the path where no point can
// follow the lead (a throttler and a mode mismatch): RunBatch still
// serves the lead's Result, byte-identical to Run, and hands the rest
// back.
func TestRunBatchLeadWithoutFollowers(t *testing.T) {
	g := dram.Baseline()
	points := []BatchPoint{{}, {Tracker: func(ch int) rh.Tracker {
		return blockhammer.New(ch, g, 500)
	}}, {Mode: rh.VRR2}}
	results, outcomes, err := RunBatch(batchBaseConfig(t, g, false), points)
	if err != nil {
		t.Fatal(err)
	}
	want := []FallbackReason{FallbackLead, FallbackThrottler, FallbackMode}
	for i := range points {
		if outcomes[i].Reason != want[i] {
			t.Errorf("point %d: outcome %+v, want %q", i, outcomes[i], want[i])
		}
	}
	wantJS, _ := json.Marshal(MustRun(batchBaseConfig(t, g, false)))
	gotJS, _ := json.Marshal(results[0])
	if !bytes.Equal(wantJS, gotJS) {
		t.Error("lead result diverges from an independent run")
	}
}
