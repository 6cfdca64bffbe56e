package core

import (
	"dapper/internal/cache/spare"
	"dapper/internal/dram"
	"dapper/internal/llbc"
	"dapper/internal/rh"
)

// DapperH is the enhanced tracker of §VI. It keeps two RGC tables per
// rank, each behind its own LLBC, and triggers a mitigation only when
// *both* of an activated row's group counters reach NM. Mitigation
// refreshes only the rows shared by the two groups (almost always just
// the aggressor itself, §VI-D footnote 5), carries the surviving
// members' counts across the reset via per-table reset counters
// (Figure 8, steps 3-4), and a per-bank bit-vector on table 1 filters
// the cross-bank streaming pattern (§VI-B.2). Tables, bit-vectors and
// keys are reset every tREFW. The tables come from the free list in
// internal/cache/spare, and Release hands them back.
type DapperH struct {
	cfg     Config
	channel int
	nm      uint16
	ranks   []hRank
	nextRst dram.Cycle
	epoch   uint64
	stats   rh.Stats
	memo    *partnerMemo // the shared partners memo; tests substitute a small one

	// Extra observability: how often a mitigation refreshed exactly one
	// shared row (the paper reports 99.9%).
	singleSharedMitigations uint64
}

type hRank struct {
	cipher1 *llbc.Cipher
	cipher2 *llbc.Cipher
	groups  *groupTable // the shared group memo's table for the two ciphers' keys
	tab     []hEntry    // indexed by group id: tab[g1] for table 1, tab[g2] for table 2
}

// hEntry packs one group id's state into 8 bytes, so an ACT touches two
// cache lines, not three. ValidateH keeps NM within the 16-bit counters
// and the rank's banks within the 32-bit bit-vector.
type hEntry struct {
	bitvec     uint32 // table-1 entry's per-bank filter
	rgc1, rgc2 uint16
}

// NewDapperH builds a DAPPER-H tracker for one channel.
func NewDapperH(channel int, cfg Config) (*DapperH, error) {
	cfg = cfg.withDefaults()
	if err := cfg.ValidateH(); err != nil {
		return nil, err
	}
	d := &DapperH{
		cfg:     cfg,
		channel: channel,
		nm:      uint16(cfg.NM()),
		ranks:   make([]hRank, cfg.Geometry.Ranks),
		nextRst: resetWindow,
		memo:    &partners,
	}
	for r := range d.ranks {
		seed := cfg.Seed ^ uint64(channel)<<32 ^ uint64(r)<<16
		rk := &d.ranks[r]
		rk.cipher1 = llbc.MustNew(cfg.AddressBits(), seed)
		rk.cipher2 = llbc.MustNew(cfg.AddressBits(), seed^0xD0E5C0DE)
		rk.groups = groupTableOf(&groupTables, rk.cipher1, rk.cipher2)
		rk.tab = spare.Take[hEntry](cfg.NumGroups())
	}
	return d, nil
}

// Name implements rh.Tracker.
func (d *DapperH) Name() string { return "DAPPER-H" }

// Config returns the tracker's configuration.
func (d *DapperH) Config() Config { return d.cfg }

// OnActivate implements rh.Tracker (Figure 8, steps 1-2).
//
// The row's two groups come from the group memo (partners.go), which
// hashes a row through both ciphers once for every tracker with the
// same keys: in a sweep, the lockstep followers read what the lead
// computed instead of encrypting every ACT again.
func (d *DapperH) OnActivate(now dram.Cycle, loc dram.Loc, buf []rh.Action) []rh.Action {
	d.stats.Activations++
	rk := &d.ranks[loc.Rank]
	g1, g2 := rk.groups.groups(rk.cipher1, rk.cipher2, d.cfg.Geometry.RankRowIndex(loc))
	bank := uint(d.cfg.Geometry.BankInRank(loc))

	// Counters saturate at NM: they are 1-byte structures in hardware
	// (§VI-H) and no information beyond the trigger threshold is
	// needed. Saturation also bounds the reset-counter values computed
	// during mitigation, which otherwise ratchet upward when many hot
	// groups cross-inherit each other's counts (see mitigate).
	e1, e2 := &rk.tab[g1], &rk.tab[g2]
	mask := uint32(1) << bank
	if e1.bitvec&mask == 0 {
		// First activation from this bank since the last table-1
		// increment: set the bit and count only in table 2. This is
		// what defeats the streaming attack — bank-interleaved sweeps
		// keep flipping fresh bits instead of inflating RGC1.
		e1.bitvec |= mask
	} else {
		// Repeat activation from the same bank: count in both tables
		// and restart the bank filter for this group.
		if e1.rgc1 < d.nm {
			e1.rgc1++
		}
		e1.bitvec = mask
	}
	if e2.rgc2 < d.nm {
		e2.rgc2++
	}

	if e1.rgc1 >= d.nm && e2.rgc2 >= d.nm {
		buf = d.mitigate(rk, loc, g1, g2, buf)
	}
	return buf
}

// mitigate implements Figure 8 steps 3-4: find each member's group in
// the opposite table, refresh the shared rows, compute the per-table
// reset counters from the opposite table's counts of the surviving
// members, install them, and clear the bit-vector entry.
//
// The members' opposite groups come from the partner-group memo
// (partners.go), not from 512 Decrypt and 512 Encrypt calls per
// mitigation. The memo is keyed by the two ciphers' keys, not by this
// tracker: the groups are a pure function of the keys, so every tracker
// with the same keys (same seed, channel, rank and epoch) shares the
// entries, and none has state to release. Only a shared row, which is
// refreshed, is decrypted.
func (d *DapperH) mitigate(rk *hRank, loc dram.Loc, g1, g2 uint64, buf []rh.Action) []rh.Action {
	d.stats.Mitigations++
	kind := d.cfg.Mode.ActionKind()
	// partners1[i] is the table-2 group of group 1's member i;
	// partners2[i] the table-1 group of group 2's member i.
	partners1 := partnersOf(d.memo, rk.cipher1, rk.cipher2, g1)
	partners2 := partnersOf(d.memo, rk.cipher2, rk.cipher1, g2)

	// Walk group 1: the reset counter for table 1 is the maximum
	// table-2 count among members that are NOT shared with group 2
	// (shared rows are refreshed below, so their history clears; a row
	// is shared iff its table-2 group is g2).
	//
	// Saturated counters (== NM) are excluded from inheritance: a
	// member whose opposite counter already sits at the threshold will
	// trigger its own mitigation on its next activation regardless of
	// this group's reset value, so its evidence is not portable — and
	// inheriting it would let dense hot groups pin each other's
	// counters at NM-1 and re-trigger on every activation (the
	// feedback loop the refresh attack would otherwise sustain). Worst
	// case a non-inherited member accrues NM further counted
	// activations before its own trigger: 2*NM = NRH, the same bound
	// the NM = NRH/2 window-reset argument relies on (§V-C).
	var reset1 uint16
	for _, og2 := range partners1 {
		if uint64(og2) == g2 {
			continue // shared row
		}
		if c := rk.tab[og2].rgc2; c > reset1 && c < d.nm {
			reset1 = c
		}
	}

	// Walk group 2: refresh shared rows (members whose table-1 group is
	// g1), and compute table 2's reset counter from the table-1 counts
	// of its non-shared members.
	var reset2 uint16
	shared := 0
	for i, og1 := range partners2 {
		if uint64(og1) == g1 {
			orig := rk.cipher2.Decrypt(g2<<groupShift + uint64(i))
			mloc := d.cfg.Geometry.FromRankRowIndex(loc.Channel, loc.Rank, orig)
			buf = append(buf, rh.Action{Kind: kind, Loc: mloc, Row: mloc.Row})
			d.stats.VictimRefreshes++
			shared++
			continue
		}
		if c := rk.tab[og1].rgc1; c > reset2 && c < d.nm {
			reset2 = c
		}
	}
	if shared == 1 {
		d.singleSharedMitigations++
	}

	rk.tab[g1].rgc1 = reset1
	rk.tab[g1].bitvec = 0
	rk.tab[g2].rgc2 = reset2
	return buf
}

// Tick implements rh.Tracker: full reset + rekey every tREFW, Figure 8
// initialization semantics.
func (d *DapperH) Tick(now dram.Cycle, buf []rh.Action) []rh.Action {
	if now < d.nextRst {
		return buf
	}
	d.nextRst += resetWindow
	d.epoch++
	for r := range d.ranks {
		rk := &d.ranks[r]
		clear(rk.tab)
		base := d.cfg.Seed ^ d.epoch*0x9E3779B97F4A7C15 ^ uint64(d.channel)<<32 ^ uint64(r)<<16
		rk.cipher1.Rekey(base)
		rk.cipher2.Rekey(base ^ 0xD0E5C0DE)
		rk.groups = groupTableOf(&groupTables, rk.cipher1, rk.cipher2)
	}
	return buf
}

// Stats implements rh.Tracker.
func (d *DapperH) Stats() rh.Stats { return d.stats }

// Release implements rh.Releaser: the rank tables go back to the free
// list for the next DAPPER-H of the same geometry. Stats and Name still
// read; OnActivate panics.
func (d *DapperH) Release() {
	for r := range d.ranks {
		spare.Put(d.ranks[r].tab)
		d.ranks[r].tab = nil
	}
}

// TableOccupancy implements rh.TableReporter: live entries are
// non-zero counters across both tables, resets are epoch rollovers.
func (d *DapperH) TableOccupancy() rh.TableOccupancy {
	occ := rh.TableOccupancy{Resets: d.epoch}
	for r := range d.ranks {
		tab := d.ranks[r].tab
		occ.Capacity += 2 * len(tab)
		for _, e := range tab {
			if e.rgc1 != 0 {
				occ.Used++
			}
			if e.rgc2 != 0 {
				occ.Used++
			}
		}
	}
	return occ
}

// SingleSharedFraction returns the fraction of mitigations that
// refreshed exactly one shared row (paper: 99.9%, footnote 5).
func (d *DapperH) SingleSharedFraction() float64 {
	if d.stats.Mitigations == 0 {
		return 0
	}
	return float64(d.singleSharedMitigations) / float64(d.stats.Mitigations)
}

// Counts returns the two group counters a row currently maps to (test
// hook).
func (d *DapperH) Counts(loc dram.Loc) (uint32, uint32) {
	tab := d.ranks[loc.Rank].tab
	g1, g2 := d.GroupsOf(loc)
	return uint32(tab[g1].rgc1), uint32(tab[g2].rgc2)
}

// GroupsOf returns the row's (group1, group2) ids in the current
// mapping (test and analysis hook).
func (d *DapperH) GroupsOf(loc dram.Loc) (uint64, uint64) {
	rk := &d.ranks[loc.Rank]
	idx := d.cfg.Geometry.RankRowIndex(loc)
	return rk.cipher1.Encrypt(idx) >> groupShift, rk.cipher2.Encrypt(idx) >> groupShift
}

// BitvecEntry exposes a table-1 bit-vector entry (test hook).
func (d *DapperH) BitvecEntry(rank int, g1 uint64) uint64 {
	return uint64(d.ranks[rank].tab[g1].bitvec)
}
