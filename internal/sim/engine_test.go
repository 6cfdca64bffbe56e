package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"dapper/internal/attack"
	"dapper/internal/core"
	"dapper/internal/cpu"
	"dapper/internal/dram"
	"dapper/internal/rh"
	"dapper/internal/telemetry"
	"dapper/internal/trackers/blockhammer"
	"dapper/internal/trackers/comet"
	"dapper/internal/trackers/hydra"
)

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
	}{
		{"", EngineEvent},
		{"event", EngineEvent},
		{"cycle", EngineCycle},
	} {
		got, err := ParseEngine(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseEngine(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseEngine("warp"); err == nil {
		t.Fatal("expected error for unknown engine")
	}
}

func TestPartialTimingRejected(t *testing.T) {
	g := dram.Baseline()
	cfg := quickCfg(BenignTraces(mustWorkload(t, "429.mcf"), 4, g, 1))
	cfg.Timing = dram.Timing{TRC: dram.NS(48)} // everything else zero
	if _, err := Run(cfg); err == nil {
		t.Fatal("partially-filled Timing must be rejected, not silently run")
	}
}

func TestUnknownEngineRejected(t *testing.T) {
	g := dram.Baseline()
	cfg := quickCfg(BenignTraces(mustWorkload(t, "429.mcf"), 4, g, 1))
	cfg.Engine = Engine("warp")
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown engine must be rejected")
	}
}

// engineScenario is one cell of the sim-level equivalence matrix.
type engineScenario struct {
	name    string
	tracker TrackerFactory
	kind    attack.Kind
}

func engineScenarios(g dram.Geometry) []engineScenario {
	return []engineScenario{
		{"insecure-benign", nil, attack.None},
		{"insecure-thrash", nil, attack.CacheThrash},
		{"dapper-h-refresh", func(ch int) rh.Tracker {
			d, err := core.NewDapperH(ch, core.Config{Geometry: g, NRH: 500})
			if err != nil {
				panic(err)
			}
			return d
		}, attack.Refresh},
		// BlockHammer exercises the throttling wake-time bound, Hydra the
		// injected counter traffic, CoMeT the bulk structure resets.
		{"blockhammer-refresh", func(ch int) rh.Tracker {
			return blockhammer.New(ch, blockhammer.Config{Geometry: g, NRH: 500})
		}, attack.Refresh},
		{"hydra-conflict", func(ch int) rh.Tracker {
			return hydra.New(ch, hydra.Config{Geometry: g, NRH: 500})
		}, attack.HydraConflict},
		{"comet-rat-thrash", func(ch int) rh.Tracker {
			return comet.New(ch, comet.Config{Geometry: g, NRH: 500})
		}, attack.RATThrash},
	}
}

func scenarioConfig(t *testing.T, g dram.Geometry, sc engineScenario) Config {
	t.Helper()
	var traces []cpu.Trace
	if sc.kind == attack.None {
		traces = BenignTraces(mustWorkload(t, "429.mcf"), 4, g, 3)
	} else {
		traces = append(BenignTraces(mustWorkload(t, "ycsb_a"), 3, g, 3),
			attack.MustTrace(attack.Config{Geometry: g, NRH: 500, Kind: sc.kind}))
	}
	cfg := Config{
		Geometry: g,
		Traces:   traces,
		Warmup:   dram.US(20),
		Measure:  dram.US(80),
	}
	if sc.tracker != nil {
		cfg.Tracker = sc.tracker
	}
	return cfg
}

// TestEngineEquivalence is the tentpole's safety net: the event engine
// must produce a Result identical to the per-cycle reference loop.
// Traces are generative and deterministic, so the configs rebuilt per
// engine replay the same instruction streams.
func TestEngineEquivalence(t *testing.T) {
	g := dram.Baseline()
	for _, sc := range engineScenarios(g) {
		t.Run(sc.name, func(t *testing.T) {
			cyc := scenarioConfig(t, g, sc)
			cyc.Engine = EngineCycle
			ev := scenarioConfig(t, g, sc)
			ev.Engine = EngineEvent
			want := MustRun(cyc)
			got := MustRun(ev)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("engines diverge:\n cycle: %+v\n event: %+v", want, got)
			}
		})
	}
}

// TestEngineEquivalenceTelemetry extends the equivalence matrix to the
// windowed telemetry: Result.Series must be byte-identical between the
// cycle and event engines and across reruns, and switching telemetry on
// must not perturb any other Result field. Byte comparison (not
// DeepEqual) is deliberate — the serialized series is what sinks cache
// and goldens pin.
func TestEngineEquivalenceTelemetry(t *testing.T) {
	g := dram.Baseline()
	for _, sc := range engineScenarios(g) {
		t.Run(sc.name, func(t *testing.T) {
			mk := func(e Engine, window dram.Cycle) Config {
				cfg := scenarioConfig(t, g, sc)
				cfg.Engine = e
				cfg.TelemetryWindow = window
				return cfg
			}
			want := MustRun(mk(EngineCycle, dram.US(5)))
			got := MustRun(mk(EngineEvent, dram.US(5)))
			if want.Series == nil || got.Series == nil {
				t.Fatal("TelemetryWindow set but Series missing")
			}
			wantJSON, err := json.Marshal(want.Series)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := json.Marshal(got.Series)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantJSON, gotJSON) {
				t.Fatalf("Series diverges between engines:\n cycle: %s\n event: %s", wantJSON, gotJSON)
			}
			rerun := MustRun(mk(EngineEvent, dram.US(5)))
			rerunJSON, _ := json.Marshal(rerun.Series)
			if !bytes.Equal(gotJSON, rerunJSON) {
				t.Fatal("Series differs across reruns of the same config")
			}
			// Telemetry must be purely additive: all other fields match a
			// telemetry-off run exactly.
			off := MustRun(mk(EngineEvent, 0))
			if off.Series != nil {
				t.Fatal("Series present with telemetry off")
			}
			onStripped := got
			onStripped.Series = nil
			if !reflect.DeepEqual(off, onStripped) {
				t.Fatalf("telemetry perturbed the Result:\n off: %+v\n on:  %+v", off, onStripped)
			}
		})
	}
}

// TestEngineEquivalenceAttribution extends the equivalence matrix to
// the slowdown-attribution layer: Result.Attribution (CPI stacks,
// blame buckets, the core→core matrix) and the windowed blame series
// must be byte-identical between the cycle and event engines, and
// switching attribution on must not perturb any other Result field.
// Every run here also passes sim.Run's internal conservation checks
// (CPI buckets sum to cycles; blame sums to the measured read wait;
// window sums equal grand totals) — a failure surfaces as a Run error.
func TestEngineEquivalenceAttribution(t *testing.T) {
	g := dram.Baseline()
	for _, sc := range engineScenarios(g) {
		t.Run(sc.name, func(t *testing.T) {
			mk := func(e Engine, attr bool) Config {
				cfg := scenarioConfig(t, g, sc)
				cfg.Engine = e
				cfg.TelemetryWindow = dram.US(5)
				cfg.Attribution = attr
				return cfg
			}
			want := MustRun(mk(EngineCycle, true))
			got := MustRun(mk(EngineEvent, true))
			if want.Attribution == nil || got.Attribution == nil {
				t.Fatal("Attribution set but Result.Attribution missing")
			}
			wantJSON, err := json.Marshal(want.Attribution)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := json.Marshal(got.Attribution)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantJSON, gotJSON) {
				t.Fatalf("Attribution diverges between engines:\n cycle: %s\n event: %s", wantJSON, gotJSON)
			}
			wantSeries, _ := json.Marshal(want.Series)
			gotSeries, _ := json.Marshal(got.Series)
			if !bytes.Equal(wantSeries, gotSeries) {
				t.Fatal("windowed stacks (Series with blame) diverge between engines")
			}
			if got.Series.Blame == nil || got.Series.Cores[0].StallROB == nil {
				t.Fatal("attribution+telemetry run must carry windowed blame and the stall split")
			}
			// Attribution must be purely additive: all other fields match
			// an attribution-off run exactly (the Series differs only by
			// the blame/stall-split extensions, so compare it separately).
			off := MustRun(mk(EngineEvent, false))
			if off.Attribution != nil {
				t.Fatal("Attribution present with attribution off")
			}
			if off.Series.Blame != nil || off.Series.Cores[0].StallROB != nil {
				t.Fatal("blame series present with attribution off")
			}
			onStripped := got
			onStripped.Attribution = nil
			onStripped.Series = off.Series
			if !reflect.DeepEqual(off, onStripped) {
				t.Fatalf("attribution perturbed the Result:\n off: %+v\n on:  %+v", off, onStripped)
			}
			// The telemetry series itself must also be untouched apart
			// from the additive blame/stall-split extensions.
			stripped := *got.Series
			stripped.Blame = nil
			coresCopy := make([]telemetry.CoreSeries, len(stripped.Cores))
			copy(coresCopy, stripped.Cores)
			for i := range coresCopy {
				coresCopy[i].StallROB, coresCopy[i].StallBP = nil, nil
			}
			stripped.Cores = coresCopy
			strippedJSON, _ := json.Marshal(&stripped)
			offSeriesJSON, _ := json.Marshal(off.Series)
			if !bytes.Equal(strippedJSON, offSeriesJSON) {
				t.Fatal("attribution perturbed the telemetry series beyond its additive extensions")
			}
		})
	}
}

// recordSink keeps one channel's raw controller event stream.
type recordSink struct{ events []rh.Event }

func (r *recordSink) Event(e rh.Event) { r.events = append(r.events, e) }

// TestEngineEquivalenceSinkStream checks the raw controller stream, not
// just its folds: every rh.Event, per channel and in order, must be
// identical under both engines. One point throttles (BlockHammer's gate
// times ride the serve events), one injects counter traffic (Hydra at a
// low NRH).
func TestEngineEquivalenceSinkStream(t *testing.T) {
	g := dram.Baseline()
	for _, sc := range []engineScenario{
		{"blockhammer-refresh", func(ch int) rh.Tracker {
			return blockhammer.New(ch, blockhammer.Config{Geometry: g, NRH: 500})
		}, attack.Refresh},
		{"hydra-low-nrh", func(ch int) rh.Tracker {
			return hydra.New(ch, hydra.Config{Geometry: g, NRH: 64})
		}, attack.HydraConflict},
	} {
		t.Run(sc.name, func(t *testing.T) {
			record := func(e Engine) []recordSink {
				recs := make([]recordSink, g.Channels)
				cfg := scenarioConfig(t, g, sc)
				cfg.Warmup, cfg.Measure = dram.US(5), dram.US(25)
				cfg.Engine = e
				cfg.Sink = func(ch int) rh.Sink { return &recs[ch] }
				MustRun(cfg)
				return recs
			}
			want, got := record(EngineCycle), record(EngineEvent)
			kinds := map[rh.EventKind]int{}
			throttled, injected := 0, 0
			for ch := range want {
				w, e := want[ch].events, got[ch].events
				for i := 0; i < min(len(w), len(e)); i++ {
					if w[i] != e[i] {
						t.Fatalf("channel %d event %d differs:\n cycle: %+v\n event: %+v", ch, i, w[i], e[i])
					}
				}
				if len(w) != len(e) {
					t.Fatalf("channel %d: cycle engine emitted %d events, event engine %d", ch, len(w), len(e))
				}
				for _, ev := range w {
					kinds[ev.Kind]++
					if ev.Kind == rh.EvServe && ev.ThrottleFree > 0 {
						throttled++
					}
					if ev.Kind == rh.EvACT && ev.Injected {
						injected++
					}
				}
			}
			// The point must exercise what it is here for.
			for _, k := range []rh.EventKind{rh.EvACT, rh.EvRefresh, rh.EvQueue, rh.EvServe, rh.EvBlock} {
				if kinds[k] == 0 {
					t.Errorf("stream has no events of kind %d", k)
				}
			}
			if sc.name == "blockhammer-refresh" && throttled == 0 {
				t.Error("no serve carried a throttle gate")
			}
			if sc.name == "hydra-low-nrh" && injected == 0 {
				t.Error("no injected activation in the stream")
			}
		})
	}
}

// TestEngineDeterminism runs the same config twice under each engine and
// requires identical Results.
func TestEngineDeterminism(t *testing.T) {
	g := dram.Baseline()
	sc := engineScenarios(g)[2] // dapper-h under refresh attack
	for _, e := range []Engine{EngineCycle, EngineEvent} {
		cfgA := scenarioConfig(t, g, sc)
		cfgA.Engine = e
		cfgB := scenarioConfig(t, g, sc)
		cfgB.Engine = e
		if a, b := MustRun(cfgA), MustRun(cfgB); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s engine is non-deterministic:\n %+v\n %+v", e, a, b)
		}
	}
}

// TestEngineEquivalenceFourRanks covers the fixed >2-rank refresh
// stagger under both engines on an 8-channel, 4-rank geometry.
func TestEngineEquivalenceFourRanks(t *testing.T) {
	g := dram.Baseline()
	g.Channels = 8
	g.Ranks = 4
	mk := func(e Engine) Config {
		cfg := Config{
			Geometry: g,
			Traces:   BenignTraces(mustWorkload(t, "403.gcc"), 4, g, 1),
			Warmup:   dram.US(15),
			Measure:  dram.US(60),
			Engine:   e,
		}
		return cfg
	}
	want := MustRun(mk(EngineCycle))
	got := MustRun(mk(EngineEvent))
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("engines diverge on 4-rank geometry:\n cycle: %+v\n event: %+v", want, got)
	}
}
