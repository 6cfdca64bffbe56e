package core

import (
	"dapper/internal/dram"
	"dapper/internal/llbc"
	"dapper/internal/rh"
)

// DapperS is the single-hash tracker template of §V. Each rank's rows
// are permuted by a keyed LLBC; the hashed space is divided into groups
// of 256 rows, each with one SRAM counter. When a group counter
// reaches NM (= NRH/2) the tracker decrypts all member rows back to
// their original addresses, refreshes every one of them, and zeroes the
// counter (Figure 6). The table is cleared and the cipher rekeyed every
// tREFW.
//
// DAPPER-S is deliberately a stepping stone: it defeats the counter-
// traffic attacks of §III-B but remains vulnerable to mapping-agnostic
// streaming/refresh attacks (§V-E) and, with its tREFW reset window, to
// mapping-capturing attacks (§V-D, Table II). DAPPER-H closes those
// holes.
type DapperS struct {
	cfg     Config
	channel int
	nm      uint16
	ranks   []sRank
	nextRst dram.Cycle
	epoch   uint64
	stats   rh.Stats
}

type sRank struct {
	cipher *llbc.Cipher
	rgc    []uint16 // counters reset at NM <= 65535 (Validate)
}

// NewDapperS builds a DAPPER-S tracker for one channel.
func NewDapperS(channel int, cfg Config) (*DapperS, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &DapperS{
		cfg:     cfg,
		channel: channel,
		nm:      uint16(cfg.NM()),
		ranks:   make([]sRank, cfg.Geometry.Ranks),
		nextRst: resetWindow,
	}
	for r := range d.ranks {
		seed := cfg.Seed ^ uint64(channel)<<32 ^ uint64(r)<<16
		d.ranks[r] = sRank{
			cipher: llbc.MustNew(cfg.AddressBits(), seed),
			rgc:    make([]uint16, cfg.NumGroups()),
		}
	}
	return d, nil
}

// Name implements rh.Tracker.
func (d *DapperS) Name() string { return "DAPPER-S" }

// Config returns the tracker's configuration.
func (d *DapperS) Config() Config { return d.cfg }

// OnActivate implements rh.Tracker: hash the row, bump its RGC, and
// mitigate the whole group at the threshold.
func (d *DapperS) OnActivate(now dram.Cycle, loc dram.Loc, buf []rh.Action) []rh.Action {
	d.stats.Activations++
	rk := &d.ranks[loc.Rank]
	idx := d.cfg.Geometry.RankRowIndex(loc)
	hashed := rk.cipher.Encrypt(idx)
	g := hashed >> groupShift
	rk.rgc[g]++
	if rk.rgc[g] < d.nm {
		return buf
	}
	// Mitigation: refresh every member row of the group (Figure 6b).
	d.stats.Mitigations++
	base := g << groupShift
	kind := d.cfg.Mode.ActionKind()
	for i := uint64(0); i < groupSize; i++ {
		orig := rk.cipher.Decrypt(base + i)
		mloc := d.cfg.Geometry.FromRankRowIndex(loc.Channel, loc.Rank, orig)
		buf = append(buf, rh.Action{Kind: kind, Loc: mloc, Row: mloc.Row})
		d.stats.VictimRefreshes++
	}
	rk.rgc[g] = 0
	return buf
}

// Tick implements rh.Tracker: clear the table and rekey every tREFW.
func (d *DapperS) Tick(now dram.Cycle, buf []rh.Action) []rh.Action {
	if now < d.nextRst {
		return buf
	}
	d.nextRst += resetWindow
	d.epoch++
	for r := range d.ranks {
		rk := &d.ranks[r]
		clear(rk.rgc)
		rk.cipher.Rekey(d.cfg.Seed ^ d.epoch*0x9E3779B97F4A7C15 ^ uint64(d.channel)<<32 ^ uint64(r)<<16)
	}
	return buf
}

// Stats implements rh.Tracker.
func (d *DapperS) Stats() rh.Stats { return d.stats }

// TableOccupancy implements rh.TableReporter: live entries are groups
// with a non-zero counter, resets are epoch rollovers.
func (d *DapperS) TableOccupancy() rh.TableOccupancy {
	occ := rh.TableOccupancy{Resets: d.epoch}
	for r := range d.ranks {
		rgc := d.ranks[r].rgc
		occ.Capacity += len(rgc)
		for _, c := range rgc {
			if c != 0 {
				occ.Used++
			}
		}
	}
	return occ
}

// GroupCount returns the current counter of the group that row belongs
// to (test hook).
func (d *DapperS) GroupCount(loc dram.Loc) uint32 {
	rk := &d.ranks[loc.Rank]
	hashed := rk.cipher.Encrypt(d.cfg.Geometry.RankRowIndex(loc))
	return uint32(rk.rgc[hashed>>groupShift])
}

// GroupOf returns the group id of a row in the current mapping (test
// and attack-analysis hook; a real attacker cannot read this).
func (d *DapperS) GroupOf(loc dram.Loc) uint64 {
	rk := &d.ranks[loc.Rank]
	return rk.cipher.Encrypt(d.cfg.Geometry.RankRowIndex(loc)) >> groupShift
}
