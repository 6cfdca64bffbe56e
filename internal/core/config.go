// Package core implements the paper's contribution: the DAPPER-S and
// DAPPER-H Performance-Attack-resilient RowHammer trackers (§V and §VI).
//
// Both trackers group the rows of a rank into row groups via a keyed
// Low-Latency Block Cipher and count activations per group in SRAM-
// resident Row Group Counter (RGC) tables inside the memory controller —
// never in DRAM, which removes the counter-traffic attack surface that
// Hydra and START expose. DAPPER-S uses a single table and refreshes the
// whole group on mitigation; DAPPER-H uses two independently hashed
// tables, mitigates only the rows shared by the two triggering groups,
// carries counts across mitigations with per-table reset counters, and
// filters cross-bank streaming with a per-bank bit-vector.
//
// A DAPPER-H mitigation needs every member's group in the opposite
// table, which the hardware gets by decrypting and re-encrypting both
// groups, and every activation needs the row's two groups, one Encrypt
// per table. The simulator reads both from process-wide memos
// (partners.go) keyed by the two ciphers' keys and width: the partner
// memo maps a group to its members' opposite groups, and the group memo
// maps a rank row index to its group pair. Both are pure functions of
// the keys, and every DAPPER-H with the same seed, channel, rank and
// epoch has the same keys, so lockstep followers, sweep points and
// concurrent pool workers share the entries and no tracker owns or
// releases them. The group memo is direct-mapped: a key pair's table
// is 8,192 one-word slots (64 KiB), each packing the row index beside
// its groups, so a read that races a write on another goroutine either
// matches its row and returns the pure-function value or misses. Each
// memo holds a bounded number of entries or tables and evicts the
// oldest (partnerMemoEntries, groupMemoTables).
package core

import (
	"fmt"
	"math"
	"math/bits"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

// groupSize is the paper's row-group size: 256 rows per RGC, so a
// hashed row index shifted right by groupShift is its group id.
const (
	groupSize  = 1 << groupShift
	groupShift = 8
)

// resetWindow is the structure reset + rekey period (tREFW).
var resetWindow = dram.DDR5().TREFW

// Config parameterises a DAPPER tracker.
type Config struct {
	// Geometry of the memory system; the randomized space is the rank
	// (RowsPerRank rows), matching the paper's default per-rank mapping.
	Geometry dram.Geometry
	// NRH is the RowHammer threshold; the mitigation threshold NM is
	// NRH/2 (§V-C).
	NRH uint32
	// Mode selects the mitigation command (VRR-BR1 default; §VI-G
	// evaluates BR2 and DRFMsb).
	Mode rh.MitigationMode
	// Seed keys the cipher(s); reseeded on every reset window.
	Seed uint64
}

// withDefaults fills a zero Seed.
func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 0xDA99E4
	}
	return c
}

// Validate checks the configuration, so a bad geometry or threshold is
// reported before any tracker is built.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.NRH < 4 {
		return fmt.Errorf("core: NRH %d too small", c.NRH)
	}
	if c.NM() > math.MaxUint16 {
		return fmt.Errorf("core: NRH %d too large: NM %d exceeds the 16-bit group counters (NRH <= 131071)", c.NRH, c.NM())
	}
	rows := c.Geometry.RowsPerRank()
	if rows&(rows-1) != 0 {
		return fmt.Errorf("core: rows per rank (%d) must be a power of two for the cipher domain", rows)
	}
	if rows < groupSize {
		return fmt.Errorf("core: rows per rank (%d) must hold at least one %d-row group", rows, groupSize)
	}
	return nil
}

// ValidateH is Validate plus DAPPER-H's own limits: its per-bank
// bit-vector has 32 bits, and its memos store group ids in 16 bits and
// rank row indices in 24.
func (c Config) ValidateH() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if n := c.Geometry.BanksPerRank(); n > 32 {
		return fmt.Errorf("core: DAPPER-H's bit-vector supports at most 32 banks per rank, got %d", n)
	}
	if n := c.NumGroups(); n > 1<<16 {
		return fmt.Errorf("core: DAPPER-H supports at most 65536 row groups (16M rows) per rank, got %d", n)
	}
	return nil
}

// NM returns the mitigation threshold (NRH / 2, §V-C).
func (c Config) NM() uint32 { return c.NRH / 2 }

// NumGroups returns the RGC table size (rows per rank / group size; 8K
// in the baseline).
func (c Config) NumGroups() int {
	return int(c.Geometry.RowsPerRank() / groupSize)
}

// AddressBits returns the cipher domain width (21 bits for 2M rows).
func (c Config) AddressBits() int {
	return bits.TrailingZeros64(c.Geometry.RowsPerRank())
}

// StorageBytesS returns DAPPER-S SRAM per channel: one RGC table per
// rank, 1 byte per entry at the default NM.
func (c Config) StorageBytesS() int {
	return c.Geometry.Ranks * c.NumGroups() * counterBytes(c.NM())
}

// StorageBytesH returns DAPPER-H SRAM per channel: two RGC tables plus
// the per-bank bit-vector for table 1 (one bit per bank per entry).
// With the baseline geometry and NRH 500 this is 96KB per 32GB channel,
// the paper's headline cost (§VI-H). This models the hardware at the
// paper's widths; the simulator deliberately stores 8 bytes per group
// instead (two 16-bit counters and a 32-bit bit-vector, see hEntry), so
// one layout serves every NM and bank count it accepts.
func (c Config) StorageBytesH() int {
	perRankTables := 2 * c.NumGroups() * counterBytes(c.NM())
	perRankBitvec := c.NumGroups() * c.Geometry.BanksPerRank() / 8
	return c.Geometry.Ranks * (perRankTables + perRankBitvec)
}

// counterBytes returns the SRAM bytes needed per counter for threshold
// nm (1 byte up to NM 255, 2 bytes beyond — the paper's default NM of
// 250 fits in a byte).
func counterBytes(nm uint32) int {
	if nm <= 255 {
		return 1
	}
	return 2
}
