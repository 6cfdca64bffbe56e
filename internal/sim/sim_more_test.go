package sim

import (
	"testing"

	"dapper/internal/attack"
	"dapper/internal/core"
	"dapper/internal/cpu"
	"dapper/internal/dram"
	"dapper/internal/rh"
	"dapper/internal/trackers/blockhammer"
	"dapper/internal/trackers/comet"
	"dapper/internal/trackers/hydra"
)

func TestHydraAttackGeneratesCounterTraffic(t *testing.T) {
	// The attack's group-counter warmup phase alone takes ~200us of
	// attacker time, so run the attacker solo with a window that
	// reaches the RCC-thrashing steady state.
	g := dram.Baseline()
	cfg := quickCfg([]cpu.Trace{attack.MustTrace(attack.Config{Geometry: g, NRH: 500, Kind: attack.HydraConflict})})
	cfg.Warmup = dram.US(200)
	cfg.Measure = dram.US(300)
	cfg.Tracker = func(ch int) rh.Tracker {
		return hydra.New(ch, g, 500)
	}
	res := MustRun(cfg)
	if res.Counters.InjRD < 1000 {
		t.Fatalf("Hydra attack produced only %d counter reads", res.Counters.InjRD)
	}
	if res.Counters.InjWR == 0 {
		t.Fatal("no counter write-backs")
	}
}

func TestCoMeTAttackForcesBulkResets(t *testing.T) {
	g := dram.Baseline()
	w := mustWorkload(t, "ycsb_a")
	cfg := quickCfg(append(BenignTraces(w, 3, g, 1),
		attack.MustTrace(attack.Config{Geometry: g, NRH: 500, Kind: attack.RATThrash})))
	cfg.Warmup = dram.US(5) // catch the first reset inside the window
	cfg.Measure = dram.US(600)
	cfg.Tracker = func(ch int) rh.Tracker {
		return comet.New(ch, g, 500)
	}
	res := MustRun(cfg)
	if res.Tracker.BulkResets == 0 {
		t.Fatal("RAT thrash never forced a bulk reset")
	}
}

func TestCoMeTAttackCrushesBenignPerf(t *testing.T) {
	g := dram.Baseline()
	w := mustWorkload(t, "tpcc64")
	mk := func(kind attack.Kind, factory TrackerFactory) Result {
		cfg := quickCfg(append(BenignTraces(w, 3, g, 1),
			attack.MustTrace(attack.Config{Geometry: g, NRH: 500, Kind: kind})))
		cfg.Warmup = dram.US(60)
		cfg.Measure = dram.US(250)
		if factory != nil {
			cfg.Tracker = factory
		}
		return MustRun(cfg)
	}
	base := mk(attack.None, nil)
	hit := mk(attack.RATThrash, func(ch int) rh.Tracker {
		return comet.New(ch, g, 500)
	})
	np := NormalizedPerf(hit, base, BenignCores(4))
	if np > 0.4 {
		t.Fatalf("CoMeT under RAT thrash at %.3f; paper shows ~0.1", np)
	}
}

func TestDapperHTrackerAddsAlmostNothingUnderRefreshAttack(t *testing.T) {
	// The paper's central claim, as an integration test: DAPPER-H's
	// delta versus the insecure system running the SAME attacker is
	// within a few percent.
	g := dram.Baseline()
	w := mustWorkload(t, "tpcc64")
	mk := func(factory TrackerFactory) Result {
		cfg := quickCfg(append(BenignTraces(w, 3, g, 1),
			attack.MustTrace(attack.Config{Geometry: g, NRH: 500, Kind: attack.Refresh})))
		cfg.Warmup = dram.US(60)
		cfg.Measure = dram.US(250)
		if factory != nil {
			cfg.Tracker = factory
		}
		return MustRun(cfg)
	}
	insecure := mk(nil)
	secured := mk(func(ch int) rh.Tracker {
		d, err := core.NewDapperH(ch, core.Config{Geometry: g, NRH: 500})
		if err != nil {
			panic(err)
		}
		return d
	})
	np := NormalizedPerf(secured, insecure, BenignCores(4))
	if np < 0.93 {
		t.Fatalf("DAPPER-H added %.1f%% slowdown under refresh attack; paper says ~1%%",
			(1-np)*100)
	}
}

func TestBlockHammerThrottlesInFullSystem(t *testing.T) {
	g := dram.Baseline()
	// A lone refresh attacker with BlockHammer: hammered rows get
	// blacklisted and paced, so the attacker's ACT rate collapses.
	mk := func(factory TrackerFactory) Result {
		cfg := quickCfg([]cpu.Trace{attack.MustTrace(attack.Config{Geometry: g, NRH: 500, Kind: attack.Refresh})})
		cfg.Warmup = dram.US(50)
		cfg.Measure = dram.US(200)
		if factory != nil {
			cfg.Tracker = factory
		}
		return MustRun(cfg)
	}
	free := mk(nil)
	throttled := mk(func(ch int) rh.Tracker {
		return blockhammer.New(ch, g, 500)
	})
	if throttled.Counters.ACT >= free.Counters.ACT/2 {
		t.Fatalf("BlockHammer barely throttled: %d vs %d ACTs",
			throttled.Counters.ACT, free.Counters.ACT)
	}
	if throttled.Tracker.Throttled == 0 {
		t.Fatal("no throttling recorded")
	}
}

func TestEightChannelGeometryRuns(t *testing.T) {
	g := dram.Baseline()
	g.Channels = 8
	g.Ranks = 4
	w := mustWorkload(t, "403.gcc")
	cfg := quickCfg(BenignTraces(w, 4, g, 1))
	cfg.Geometry = g
	cfg.Warmup = dram.US(20)
	cfg.Measure = dram.US(80)
	res := MustRun(cfg)
	if res.IPC[0] <= 0 {
		t.Fatal("8-channel system produced no progress")
	}
}

// cyclicTrace sweeps a fixed working set repeatedly.
type cyclicTrace struct {
	at   uint64
	span uint64
}

func (c *cyclicTrace) Next() cpu.Record {
	addr := c.at
	c.at += 64
	if c.at >= c.span {
		c.at = 0
	}
	return cpu.Record{Bubbles: 4, Addr: addr}
}

func TestCustomLLCSize(t *testing.T) {
	// A 512KB cyclic working set: resident in a 8MB LLC, thrashing in
	// a 64KB one.
	mk := func(llcBytes int) Result {
		cfg := quickCfg([]cpu.Trace{&cyclicTrace{span: 512 << 10}})
		cfg.LLCBytes = llcBytes
		cfg.Warmup = dram.US(30)
		cfg.Measure = dram.US(100)
		return MustRun(cfg)
	}
	small := mk(64 << 10)
	big := mk(8 << 20)
	if small.LLCHitRate >= 0.5 {
		t.Fatalf("64KB LLC hit rate %.3f, expected thrash", small.LLCHitRate)
	}
	if big.LLCHitRate <= 0.9 {
		t.Fatalf("8MB LLC hit rate %.3f, expected resident", big.LLCHitRate)
	}
	if small.IPC[0] >= big.IPC[0] {
		t.Fatalf("thrash IPC %.3f >= resident IPC %.3f", small.IPC[0], big.IPC[0])
	}
}
