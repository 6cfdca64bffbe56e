package core

import (
	"fmt"

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
// keys are reset every ResetWindow (tREFW).
type DapperH struct {
	cfg     Config
	channel int
	nm      uint32
	shift   uint
	ranks   []hRank
	nextRst dram.Cycle
	epoch   uint64
	stats   rh.Stats

	// Extra observability: how often a mitigation refreshed exactly one
	// shared row (the paper reports 99.9%).
	singleSharedMitigations uint64
}

type hRank struct {
	cipher1 *llbc.Cipher
	cipher2 *llbc.Cipher
	rgc1    []uint32
	rgc2    []uint32
	bitvec  []uint64 // per table-1 entry: one bit per bank in the rank
}

// NewDapperH builds a DAPPER-H tracker for one channel.
func NewDapperH(channel int, cfg Config) (*DapperH, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Geometry.BanksPerRank() > 64 {
		return nil, fmt.Errorf("core: bit-vector supports at most 64 banks per rank, got %d", cfg.Geometry.BanksPerRank())
	}
	shift := uint(0)
	for 1<<shift != cfg.GroupSize {
		shift++
		if shift > 32 {
			return nil, fmt.Errorf("core: group size %d must be a power of two", cfg.GroupSize)
		}
	}
	d := &DapperH{
		cfg:     cfg,
		channel: channel,
		nm:      cfg.NM(),
		shift:   shift,
		ranks:   make([]hRank, cfg.Geometry.Ranks),
		nextRst: cfg.ResetWindow,
	}
	ng := cfg.NumGroups()
	for r := range d.ranks {
		seed := cfg.Seed ^ uint64(channel)<<32 ^ uint64(r)<<16
		d.ranks[r] = hRank{
			cipher1: llbc.MustNew(cfg.AddressBits(), seed),
			cipher2: llbc.MustNew(cfg.AddressBits(), seed^0xD0E5C0DE),
			rgc1:    make([]uint32, ng),
			rgc2:    make([]uint32, ng),
			bitvec:  make([]uint64, ng),
		}
	}
	return d, nil
}

// Name implements rh.Tracker.
func (d *DapperH) Name() string { return "DAPPER-H" }

// Config returns the tracker's configuration.
func (d *DapperH) Config() Config { return d.cfg }

// OnActivate implements rh.Tracker (Figure 8, steps 1-2).
func (d *DapperH) OnActivate(now dram.Cycle, loc dram.Loc, buf []rh.Action) []rh.Action {
	d.stats.Activations++
	rk := &d.ranks[loc.Rank]
	idx := d.cfg.Geometry.RankRowIndex(loc)
	g1 := rk.cipher1.Encrypt(idx) >> d.shift
	g2 := rk.cipher2.Encrypt(idx) >> d.shift
	bank := uint(d.cfg.Geometry.BankInRank(loc))

	// Counters saturate at NM: they are 1-byte structures in hardware
	// (§VI-H) and no information beyond the trigger threshold is
	// needed. Saturation also bounds the reset-counter values computed
	// during mitigation, which otherwise ratchet upward when many hot
	// groups cross-inherit each other's counts (see mitigate).
	mask := uint64(1) << bank
	if rk.bitvec[g1]&mask == 0 {
		// First activation from this bank since the last table-1
		// increment: set the bit and count only in table 2. This is
		// what defeats the streaming attack — bank-interleaved sweeps
		// keep flipping fresh bits instead of inflating RGC1.
		rk.bitvec[g1] |= mask
		if rk.rgc2[g2] < d.nm {
			rk.rgc2[g2]++
		}
	} else {
		// Repeat activation from the same bank: count in both tables
		// and restart the bank filter for this group.
		if rk.rgc1[g1] < d.nm {
			rk.rgc1[g1]++
		}
		if rk.rgc2[g2] < d.nm {
			rk.rgc2[g2]++
		}
		rk.bitvec[g1] = mask
	}

	if rk.rgc1[g1] >= d.nm && rk.rgc2[g2] >= d.nm {
		buf = d.mitigate(rk, loc, g1, g2, buf)
	}
	return buf
}

// mitigate implements Figure 8 steps 3-4: decrypt both groups' members,
// refresh the shared rows, compute the per-table reset counters from the
// opposite table's counts of the surviving members, install them, and
// clear the bit-vector entry.
func (d *DapperH) mitigate(rk *hRank, loc dram.Loc, g1, g2 uint64, buf []rh.Action) []rh.Action {
	d.stats.Mitigations++
	kind := d.cfg.Mode.ActionKind()
	size := uint64(d.cfg.GroupSize)
	base1 := g1 << d.shift
	base2 := g2 << d.shift

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
	var reset1 uint32
	for i := uint64(0); i < size; i++ {
		orig := rk.cipher1.Decrypt(base1 + i)
		og2 := rk.cipher2.Encrypt(orig) >> d.shift
		if og2 == g2 {
			continue // shared row
		}
		if c := rk.rgc2[og2]; c > reset1 && c < d.nm {
			reset1 = c
		}
	}

	// Walk group 2: refresh shared rows (members whose table-1 group is
	// g1), and compute table 2's reset counter from the table-1 counts
	// of its non-shared members.
	var reset2 uint32
	shared := 0
	for i := uint64(0); i < size; i++ {
		orig := rk.cipher2.Decrypt(base2 + i)
		og1 := rk.cipher1.Encrypt(orig) >> d.shift
		if og1 == g1 {
			mloc := d.cfg.Geometry.FromRankRowIndex(loc.Channel, loc.Rank, orig)
			buf = append(buf, rh.Action{Kind: kind, Loc: mloc, Row: mloc.Row})
			d.stats.VictimRefreshes++
			shared++
			continue
		}
		if c := rk.rgc1[og1]; c > reset2 && c < d.nm {
			reset2 = c
		}
	}
	if shared == 1 {
		d.singleSharedMitigations++
	}

	rk.rgc1[g1] = reset1
	rk.rgc2[g2] = reset2
	rk.bitvec[g1] = 0
	return buf
}

// Tick implements rh.Tracker: full reset + rekey every ResetWindow
// (tREFW), Figure 8 initialization semantics.
func (d *DapperH) Tick(now dram.Cycle, buf []rh.Action) []rh.Action {
	if now < d.nextRst {
		return buf
	}
	d.nextRst += d.cfg.ResetWindow
	d.epoch++
	for r := range d.ranks {
		rk := &d.ranks[r]
		for i := range rk.rgc1 {
			rk.rgc1[i] = 0
			rk.rgc2[i] = 0
			rk.bitvec[i] = 0
		}
		base := d.cfg.Seed ^ d.epoch*0x9E3779B97F4A7C15 ^ uint64(d.channel)<<32 ^ uint64(r)<<16
		rk.cipher1.Rekey(base)
		rk.cipher2.Rekey(base ^ 0xD0E5C0DE)
	}
	return buf
}

// Stats implements rh.Tracker.
func (d *DapperH) Stats() rh.Stats { return d.stats }

// TableOccupancy implements rh.TableReporter: live entries are
// non-zero counters across both tables, resets are epoch rollovers.
func (d *DapperH) TableOccupancy() rh.TableOccupancy {
	occ := rh.TableOccupancy{Resets: d.epoch}
	for r := range d.ranks {
		rk := &d.ranks[r]
		occ.Capacity += len(rk.rgc1) + len(rk.rgc2)
		for i := range rk.rgc1 {
			if rk.rgc1[i] != 0 {
				occ.Used++
			}
			if rk.rgc2[i] != 0 {
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
	rk := &d.ranks[loc.Rank]
	idx := d.cfg.Geometry.RankRowIndex(loc)
	g1 := rk.cipher1.Encrypt(idx) >> d.shift
	g2 := rk.cipher2.Encrypt(idx) >> d.shift
	return rk.rgc1[g1], rk.rgc2[g2]
}

// GroupsOf returns the row's (group1, group2) ids in the current
// mapping (test and analysis hook).
func (d *DapperH) GroupsOf(loc dram.Loc) (uint64, uint64) {
	rk := &d.ranks[loc.Rank]
	idx := d.cfg.Geometry.RankRowIndex(loc)
	return rk.cipher1.Encrypt(idx) >> d.shift, rk.cipher2.Encrypt(idx) >> d.shift
}

// BitvecEntry exposes a table-1 bit-vector entry (test hook).
func (d *DapperH) BitvecEntry(rank int, g1 uint64) uint64 {
	return d.ranks[rank].bitvec[g1]
}
