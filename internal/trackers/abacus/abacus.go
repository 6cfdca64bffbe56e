// Package abacus implements the ABACUS baseline tracker (Olgun et al.,
// USENIX Security 2024; paper §III-A). ABACUS exploits the observation
// that benign applications touch the same row index across banks: one
// Misra-Gries tracker per channel is keyed by row ID (not bank), and a
// per-entry bank bit-vector prevents overcounting when different banks
// touch the row. The spillover counter absorbs untracked rows; when it
// reaches NRH/2 the tracker can no longer bound any row's count, so
// ABACUS refreshes every row in the channel and resets — the overflow
// the paper's Perf-Attack (Figure 2d) forces every K x NRH/2 activations
// by round-robining distinct row IDs across banks.
package abacus

import (
	"dapper/internal/dram"
	"dapper/internal/flatmap"
	"dapper/internal/rh"
	"dapper/internal/sketch"
)

// resetWindow is the periodic structure reset (tREFW).
var resetWindow = dram.DDR5().TREFW

// entriesFor returns the paper's Misra-Gries table size for a threshold
// (§III-A: 309/617/1233/2466/4931/9783 for NRH 4K/2K/1K/500/250/125).
func entriesFor(nrh uint32) int {
	switch {
	case nrh >= 4000:
		return 309
	case nrh >= 2000:
		return 617
	case nrh >= 1000:
		return 1233
	case nrh >= 500:
		return 2466
	case nrh >= 250:
		return 4931
	default:
		return 9783
	}
}

// Tracker is one channel's ABACUS instance.
type Tracker struct {
	geo      dram.Geometry
	nm       uint32 // mitigation threshold NRH/2
	channel  int
	mg       *sketch.MisraGries
	bitvec   *flatmap.Table[uint64] // per tracked row: banks seen since last count
	nextRst  dram.Cycle
	stats    rh.Stats
	overflow uint64
}

// New builds an ABACUS tracker for one channel.
func New(channel int, geo dram.Geometry, nrh uint32) *Tracker {
	entries := entriesFor(nrh)
	return &Tracker{
		geo:     geo,
		nm:      nrh / 2,
		channel: channel,
		mg:      sketch.NewMisraGries(entries),
		bitvec:  flatmap.New[uint64](entries),
		nextRst: resetWindow,
	}
}

// Name implements rh.Tracker.
func (t *Tracker) Name() string { return "ABACUS" }

// OnActivate implements rh.Tracker.
func (t *Tracker) OnActivate(now dram.Cycle, loc dram.Loc, buf []rh.Action) []rh.Action {
	t.stats.Activations++
	key := uint64(loc.Row)
	bank := uint(t.geo.FlatBank(loc))
	mask := uint64(1) << bank

	if t.mg.Tracked(key) {
		bv := t.bitvec.Ref(key)
		if *bv&mask == 0 {
			// First touch from this bank since the last increment: the
			// bit-vector filters it (same idea DAPPER-H borrows).
			*bv |= mask
			return buf
		}
		// Same bank again: genuine repeat, count it and restart the
		// filter.
		*bv = mask
		count := t.mg.Add(key)
		if count >= t.nm {
			buf = t.mitigateRow(loc, buf)
			t.mg.SetCount(key, t.mg.Spillover())
		}
		return buf
	}

	// Untracked row: insert (or spill). Either way the row's implied
	// count is spillover+1; once that reaches NM the tracker can no
	// longer bound any new row's history below the threshold — the
	// spillover has overflowed, so refresh everything and reset
	// (§III-B, D.2).
	count := t.mg.Add(key)
	if count >= t.nm {
		return t.overflowReset(buf)
	}
	if t.mg.Tracked(key) {
		t.bitvec.Set(key, mask)
	}
	return buf
}

// overflowReset handles spillover overflow: a channel-wide refresh plus
// a full structure reset.
func (t *Tracker) overflowReset(buf []rh.Action) []rh.Action {
	t.overflow++
	t.stats.Mitigations++
	t.stats.BulkResets++
	buf = append(buf, rh.Action{Kind: rh.BulkRefreshChannel, Loc: dram.Loc{Channel: t.channel}})
	t.resetStructures()
	return buf
}

// mitigateRow refreshes the row's victims in every bank of the channel:
// the counter is shared across banks, so every homonymous row is a
// potential aggressor.
func (t *Tracker) mitigateRow(loc dram.Loc, buf []rh.Action) []rh.Action {
	t.stats.Mitigations++
	g := t.geo
	for rk := 0; rk < g.Ranks; rk++ {
		for bg := 0; bg < g.BankGroups; bg++ {
			for b := 0; b < g.BanksPerGroup; b++ {
				l := dram.Loc{Channel: t.channel, Rank: rk, BankGroup: bg, Bank: b, Row: loc.Row}
				buf = append(buf, rh.Action{Kind: rh.RefreshVictims, Loc: l, Row: loc.Row})
				t.stats.VictimRefreshes++
			}
		}
	}
	return buf
}

func (t *Tracker) resetStructures() {
	t.mg.Reset()
	t.bitvec.Reset()
}

// Tick implements rh.Tracker: periodic reset every tREFW.
func (t *Tracker) Tick(now dram.Cycle, buf []rh.Action) []rh.Action {
	if now < t.nextRst {
		return buf
	}
	t.nextRst += resetWindow
	t.resetStructures()
	return buf
}

// Stats implements rh.Tracker.
func (t *Tracker) Stats() rh.Stats { return t.stats }

// Overflows returns how often the spillover counter forced a
// channel-wide refresh.
func (t *Tracker) Overflows() uint64 { return t.overflow }

// Spillover exposes the current spillover value (test hook).
func (t *Tracker) Spillover() uint32 { return t.mg.Spillover() }
