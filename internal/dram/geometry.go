// Package dram models the DDR5 memory devices of the paper's Table I
// system: geometry (channels, ranks, bank groups, banks, rows), physical
// address mapping, JEDEC-style timing parameters, and the per-bank /
// per-rank state the memory controller schedules against. All times are
// in CPU cycles at 4GHz (1 cycle = 0.25ns), the clock the whole simulator
// steps on.
package dram

import (
	"fmt"
	"math/bits"
)

// Cycle is a point in (or duration of) simulated time, in 4GHz CPU
// cycles: 1 cycle = 0.25ns.
type Cycle = int64

// CyclesPerNs converts nanoseconds to cycles at the 4GHz simulation clock.
const CyclesPerNs = 4

// NS converts a nanosecond count to cycles.
func NS(ns float64) Cycle { return Cycle(ns*CyclesPerNs + 0.5) }

// US converts microseconds to cycles.
func US(us float64) Cycle { return NS(us * 1e3) }

// MS converts milliseconds to cycles.
func MS(ms float64) Cycle { return NS(ms * 1e6) }

// RowNone marks a closed row buffer.
const RowNone = ^uint32(0)

// Never is a sentinel wake-up time meaning "no self-scheduled event".
// It is far beyond any simulated window but small enough that adding
// ordinary latencies to it cannot overflow.
const Never Cycle = 1 << 62

// Geometry describes the DRAM organization. The paper's baseline
// (Table I) is 2 channels x 2 ranks x 8 bank groups x 4 banks, with 64K
// rows of 8KB per bank (64GB total).
type Geometry struct {
	Channels      int
	Ranks         int // per channel
	BankGroups    int // per rank
	BanksPerGroup int
	RowsPerBank   uint32
	RowBytes      int // 8KB in the baseline
	LineBytes     int // cache-line/transfer size, 64B
}

// Baseline returns the Table I geometry: dual-channel, dual-rank DDR5,
// 64GB total.
func Baseline() Geometry {
	return Geometry{
		Channels:      2,
		Ranks:         2,
		BankGroups:    8,
		BanksPerGroup: 4,
		RowsPerBank:   64 * 1024,
		RowBytes:      8 * 1024,
		LineBytes:     64,
	}
}

// Scaled returns the baseline geometry with rowsPerBank rows per bank.
// Experiments that need structure-reset dynamics within a short window
// shrink the row space; per-command timing stays physical.
func Scaled(rowsPerBank uint32) Geometry {
	g := Baseline()
	g.RowsPerBank = rowsPerBank
	return g
}

// BanksPerRank returns the bank count in one rank.
func (g Geometry) BanksPerRank() int { return g.BankGroups * g.BanksPerGroup }

// BanksPerChannel returns the bank count in one channel.
func (g Geometry) BanksPerChannel() int { return g.Ranks * g.BanksPerRank() }

// RowsPerRank returns the row count in one rank (the paper's randomized
// address space: 2M rows in the baseline).
func (g Geometry) RowsPerRank() uint64 {
	return uint64(g.BanksPerRank()) * uint64(g.RowsPerBank)
}

// TotalBytes returns the memory capacity across all channels.
func (g Geometry) TotalBytes() uint64 {
	return uint64(g.Channels) * uint64(g.Ranks) * uint64(g.BanksPerRank()) *
		uint64(g.RowsPerBank) * uint64(g.RowBytes)
}

// BlocksPerRow returns the number of cache lines per row.
func (g Geometry) BlocksPerRow() int { return g.RowBytes / g.LineBytes }

// Loc identifies one cache-line-sized location in the memory system.
type Loc struct {
	Channel   int
	Rank      int
	BankGroup int
	Bank      int
	Row       uint32
	Col       int // cache-line index within the row
}

// FlatBank returns the bank index within the channel in
// [0, BanksPerChannel): rank-major, then bank group, then bank.
func (g Geometry) FlatBank(l Loc) int {
	return (l.Rank*g.BankGroups+l.BankGroup)*g.BanksPerGroup + l.Bank
}

// BankInRank returns the bank index within its rank in [0, BanksPerRank).
func (g Geometry) BankInRank(l Loc) int {
	return l.BankGroup*g.BanksPerGroup + l.Bank
}

// RankRowIndex returns the row's index within the rank's flattened row
// space in [0, RowsPerRank): this is the domain DAPPER's secure hash
// randomizes (per-rank mapping, §V-B).
func (g Geometry) RankRowIndex(l Loc) uint64 {
	return uint64(g.BankInRank(l))*uint64(g.RowsPerBank) + uint64(l.Row)
}

// FromRankRowIndex inverts RankRowIndex for the given channel and rank.
func (g Geometry) FromRankRowIndex(channel, rank int, idx uint64) Loc {
	bank := int(idx / uint64(g.RowsPerBank))
	row := uint32(idx % uint64(g.RowsPerBank))
	return Loc{
		Channel:   channel,
		Rank:      rank,
		BankGroup: bank / g.BanksPerGroup,
		Bank:      bank % g.BanksPerGroup,
		Row:       row,
	}
}

// Decompose maps a physical address to its location. The mapping order
// (low to high bits): channel, column block, bank, bank group, rank, row.
// Sequential lines stripe across channels and then walk a row, giving
// streams good row-buffer locality; banks interleave above that.
func (g Geometry) Decompose(addr uint64) Loc {
	blk := addr / uint64(g.LineBytes)
	var l Loc
	l.Channel = int(blk % uint64(g.Channels))
	blk /= uint64(g.Channels)
	l.Col = int(blk % uint64(g.BlocksPerRow()))
	blk /= uint64(g.BlocksPerRow())
	l.Bank = int(blk % uint64(g.BanksPerGroup))
	blk /= uint64(g.BanksPerGroup)
	l.BankGroup = int(blk % uint64(g.BankGroups))
	blk /= uint64(g.BankGroups)
	l.Rank = int(blk % uint64(g.Ranks))
	blk /= uint64(g.Ranks)
	l.Row = uint32(blk % uint64(g.RowsPerBank))
	return l
}

// Channel returns Decompose(addr).Channel, the lowest address field,
// without decoding the rest.
func (g Geometry) Channel(addr uint64) int {
	return int(addr / uint64(g.LineBytes) % uint64(g.Channels))
}

// Decoder is Decompose and Channel for one geometry, precomputed: when
// every field count and the line size are powers of two, each field is
// one shift and one mask of the address (no divisions). Otherwise it
// falls back to the Geometry methods, which stay the reference.
type Decoder struct {
	g     Geometry
	pow2  bool
	shift [6]uint   // channel, col, bank, bank group, rank, row
	mask  [6]uint64 // field count - 1
}

// Decoder returns the geometry's address decoder.
func (g Geometry) Decoder() Decoder {
	d := Decoder{g: g}
	sizes := [...]uint64{uint64(g.Channels), uint64(g.BlocksPerRow()), uint64(g.BanksPerGroup),
		uint64(g.BankGroups), uint64(g.Ranks), uint64(g.RowsPerBank)}
	shift := log2(uint64(g.LineBytes))
	for i, n := range sizes {
		b := log2(n)
		if shift < 0 || b < 0 {
			return d
		}
		d.shift[i], d.mask[i] = uint(shift), n-1
		shift += b
	}
	d.pow2 = true
	return d
}

// log2 returns k with n == 1<<k, or -1 if n is not a power of two.
func log2(n uint64) int {
	if n == 0 || n&(n-1) != 0 {
		return -1
	}
	return bits.TrailingZeros64(n)
}

// Decompose equals Geometry.Decompose.
func (d *Decoder) Decompose(addr uint64) Loc {
	if !d.pow2 {
		return d.g.Decompose(addr)
	}
	return Loc{
		Channel:   int(addr >> d.shift[0] & d.mask[0]),
		Col:       int(addr >> d.shift[1] & d.mask[1]),
		Bank:      int(addr >> d.shift[2] & d.mask[2]),
		BankGroup: int(addr >> d.shift[3] & d.mask[3]),
		Rank:      int(addr >> d.shift[4] & d.mask[4]),
		Row:       uint32(addr >> d.shift[5] & d.mask[5]),
	}
}

// Channel equals Geometry.Channel.
func (d *Decoder) Channel(addr uint64) int {
	if !d.pow2 {
		return d.g.Channel(addr)
	}
	return int(addr >> d.shift[0] & d.mask[0])
}

// Compose inverts Decompose, producing the physical address of the
// location's first byte.
func (g Geometry) Compose(l Loc) uint64 {
	blk := uint64(l.Row)
	blk = blk*uint64(g.Ranks) + uint64(l.Rank)
	blk = blk*uint64(g.BankGroups) + uint64(l.BankGroup)
	blk = blk*uint64(g.BanksPerGroup) + uint64(l.Bank)
	blk = blk*uint64(g.BlocksPerRow()) + uint64(l.Col)
	blk = blk*uint64(g.Channels) + uint64(l.Channel)
	return blk * uint64(g.LineBytes)
}

// Validate checks internal consistency.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.Ranks <= 0 || g.BankGroups <= 0 ||
		g.BanksPerGroup <= 0 || g.RowsPerBank == 0 {
		return fmt.Errorf("dram: non-positive geometry dimension: %+v", g)
	}
	if g.RowBytes <= 0 || g.LineBytes <= 0 || g.RowBytes%g.LineBytes != 0 {
		return fmt.Errorf("dram: row/line sizes invalid: row=%d line=%d", g.RowBytes, g.LineBytes)
	}
	return nil
}

func (g Geometry) String() string {
	return fmt.Sprintf("%dch x %drank x %dbg x %dbk, %d rows x %dKB",
		g.Channels, g.Ranks, g.BankGroups, g.BanksPerGroup,
		g.RowsPerBank, g.RowBytes/1024)
}
