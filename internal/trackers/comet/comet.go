// Package comet implements the CoMeT baseline tracker (Bostanci et al.,
// HPCA 2024; paper §III-A). CoMeT counts activations in a per-bank
// Count-Min Sketch (4 hash functions x 512 counters) with mitigation
// threshold NRH/4. Because sketch counters are shared they cannot be
// reset after a mitigation, so recently mitigated rows move to a
// Recent Aggressor Table (RAT, 128 entries) with exact counters. The
// structures reset every tREFW/3 by refreshing every DRAM row in the
// rank (~2.4ms of blocking), and an extra reset fires when the RAT miss
// rate over a 256-event history exceeds 25% — the lever the paper's
// Perf-Attack (Figure 2c) pulls by cycling more aggressors than the RAT
// can hold.
package comet

import (
	"dapper/internal/dram"
	"dapper/internal/rh"
	"dapper/internal/sketch"
)

// CoMeT's sizing, from the original design.
const (
	hashes          = 4    // Count-Min Sketch rows per bank
	countersPerHash = 512  // counters per sketch row
	ratEntries      = 128  // Recent Aggressor Table size
	missHistory     = 256  // sliding window of the miss-rate trigger
	missRateReset   = 0.25 // miss rate that triggers an early reset
	seed            = 0xC03E7
)

// resetPeriod is the periodic full reset (tREFW/3).
var resetPeriod = dram.DDR5().TREFW / 3

// ratEntry is one exact-counter entry with LRU bookkeeping.
type ratEntry struct {
	key   uint64
	count uint32
	used  uint64
}

// Tracker is one channel's CoMeT instance.
type Tracker struct {
	geo      dram.Geometry
	nct      uint32 // sketch mitigation threshold NRH/4 (§III-A)
	nm       uint32 // RAT re-mitigation threshold NRH/2
	channel  int
	sketches []*sketch.CountMin // per flat bank
	rat      []ratEntry         // per channel, LRU
	ratTick  uint64

	// Sliding miss history for the early-reset trigger.
	history     []bool // true = RAT miss on a saturated row
	histPos     int
	histFilled  bool
	misses      int
	cooldownTil dram.Cycle

	nextReset dram.Cycle
	stats     rh.Stats
	earlyRst  uint64
	periodRst uint64
}

// New builds a CoMeT tracker for one channel.
func New(channel int, geo dram.Geometry, nrh uint32) *Tracker {
	t := &Tracker{
		geo:       geo,
		nct:       nrh / 4,
		nm:        nrh / 2,
		channel:   channel,
		sketches:  make([]*sketch.CountMin, geo.BanksPerChannel()),
		rat:       make([]ratEntry, 0, ratEntries),
		history:   make([]bool, missHistory),
		nextReset: resetPeriod,
	}
	for b := range t.sketches {
		t.sketches[b] = sketch.NewCountMin(hashes, countersPerHash, seed^uint64(channel)<<20^uint64(b))
	}
	return t
}

// Name implements rh.Tracker.
func (t *Tracker) Name() string { return "CoMeT" }

func (t *Tracker) ratFind(key uint64) *ratEntry {
	for i := range t.rat {
		if t.rat[i].key == key {
			return &t.rat[i]
		}
	}
	return nil
}

// ratInsert adds key, evicting the LRU entry when full.
func (t *Tracker) ratInsert(key uint64) {
	t.ratTick++
	if len(t.rat) < ratEntries {
		t.rat = append(t.rat, ratEntry{key: key, used: t.ratTick})
		return
	}
	lru := 0
	for i := 1; i < len(t.rat); i++ {
		if t.rat[i].used < t.rat[lru].used {
			lru = i
		}
	}
	t.rat[lru] = ratEntry{key: key, used: t.ratTick}
}

// recordHistory pushes one hit/miss sample and reports whether the
// early-reset condition is met.
func (t *Tracker) recordHistory(miss bool) bool {
	old := t.history[t.histPos]
	if t.histFilled && old {
		t.misses--
	}
	t.history[t.histPos] = miss
	if miss {
		t.misses++
	}
	t.histPos++
	if t.histPos == len(t.history) {
		t.histPos = 0
		t.histFilled = true
	}
	if !t.histFilled {
		return false
	}
	return float64(t.misses)/float64(len(t.history)) > missRateReset
}

// OnActivate implements rh.Tracker.
func (t *Tracker) OnActivate(now dram.Cycle, loc dram.Loc, buf []rh.Action) []rh.Action {
	t.stats.Activations++
	fb := t.geo.FlatBank(loc)
	key := uint64(fb)<<32 | uint64(loc.Row)

	if e := t.ratFind(key); e != nil {
		// Exact tracking of a recently mitigated row.
		t.ratTick++
		e.used = t.ratTick
		e.count++
		if e.count >= t.nm {
			e.count = 0
			t.stats.Mitigations++
			t.stats.VictimRefreshes++
			buf = append(buf, rh.Action{Kind: rh.RefreshVictims, Loc: loc, Row: loc.Row})
			// A mitigation served from the RAT: a "hit" sample for the
			// miss history (the RAT is doing its job).
			t.recordHistory(false)
		}
		return buf
	}

	est := t.sketches[fb].Add(key)
	if est < t.nct {
		return buf
	}
	// Saturated sketch counter and the row is not in the RAT: mitigate
	// and start exact tracking. This is also a "RAT miss" sample — an
	// adversary cycling many aggressors keeps this rate high.
	t.stats.Mitigations++
	t.stats.VictimRefreshes++
	buf = append(buf, rh.Action{Kind: rh.RefreshVictims, Loc: loc, Row: loc.Row})
	t.ratInsert(key)
	if t.recordHistory(true) && now >= t.cooldownTil {
		buf = t.reset(now, buf, true)
	}
	return buf
}

// reset clears all structures and issues the rank-wide refresh sweeps.
func (t *Tracker) reset(now dram.Cycle, buf []rh.Action, early bool) []rh.Action {
	if early {
		t.earlyRst++
	} else {
		t.periodRst++
	}
	t.stats.BulkResets++
	for b := range t.sketches {
		t.sketches[b].Reset()
	}
	t.rat = t.rat[:0]
	for i := range t.history {
		t.history[i] = false
	}
	t.histPos, t.misses, t.histFilled = 0, 0, false
	// Refreshing all rows takes ~2.4ms; don't re-trigger until done.
	t.cooldownTil = now + dram.DDR5().BulkSweep(t.geo.RowsPerBank)
	for rk := 0; rk < t.geo.Ranks; rk++ {
		buf = append(buf, rh.Action{Kind: rh.BulkRefreshRank, Loc: dram.Loc{Channel: t.channel, Rank: rk}})
	}
	return buf
}

// Tick implements rh.Tracker: the periodic tREFW/3 reset.
func (t *Tracker) Tick(now dram.Cycle, buf []rh.Action) []rh.Action {
	if now < t.nextReset {
		return buf
	}
	t.nextReset += resetPeriod
	return t.reset(now, buf, false)
}

// Stats implements rh.Tracker.
func (t *Tracker) Stats() rh.Stats { return t.stats }

// TableOccupancy implements rh.TableReporter: the Recent Aggressor
// Table's fill level, with both early (attack-triggered) and periodic
// resets counted.
func (t *Tracker) TableOccupancy() rh.TableOccupancy {
	return rh.TableOccupancy{
		Used:     len(t.rat),
		Capacity: ratEntries,
		Resets:   t.earlyRst + t.periodRst,
	}
}

// EarlyResets returns attack-triggered reset count (observability).
func (t *Tracker) EarlyResets() uint64 { return t.earlyRst }

// PeriodicResets returns scheduled reset count.
func (t *Tracker) PeriodicResets() uint64 { return t.periodRst }

// RATLen exposes the RAT occupancy (test hook).
func (t *Tracker) RATLen() int { return len(t.rat) }
