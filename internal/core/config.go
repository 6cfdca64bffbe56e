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
package core

import (
	"fmt"
	"math/bits"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

// DefaultGroupSize is the paper's row-group size (256 rows per RGC).
const DefaultGroupSize = 256

// Config parameterises a DAPPER tracker.
type Config struct {
	// Geometry of the memory system; the randomized space is the rank
	// (RowsPerRank rows), matching the paper's default per-rank mapping.
	Geometry dram.Geometry
	// NRH is the RowHammer threshold; the mitigation threshold NM is
	// NRH/2 (§V-C).
	NRH uint32
	// GroupSize is the rows per row-group counter (default 256).
	GroupSize int
	// Mode selects the mitigation command (VRR-BR1 default; §VI-G
	// evaluates BR2 and DRFMsb).
	Mode rh.MitigationMode
	// ResetWindow is the structure reset + rekey period. DAPPER-H uses
	// tREFW. DAPPER-S's mapping-capture resistance wants a short treset
	// (Table II evaluates 12-36us) but its tracking security requires
	// tREFW; the paper leaves this tension as DAPPER-S's motivating
	// flaw, so the parameter is exposed and defaults to tREFW.
	ResetWindow dram.Cycle
	// Seed keys the cipher(s); reseeded on every reset window.
	Seed uint64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.GroupSize == 0 {
		c.GroupSize = DefaultGroupSize
	}
	if c.ResetWindow == 0 {
		c.ResetWindow = dram.DDR5().TREFW
	}
	if c.Seed == 0 {
		c.Seed = 0xDA99E4
	}
	return c
}

// Validate checks the configuration (with defaults applied), so a bad
// geometry or threshold is reported before any tracker is built.
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.NRH < 4 {
		return fmt.Errorf("core: NRH %d too small", c.NRH)
	}
	rows := c.Geometry.RowsPerRank()
	if rows&(rows-1) != 0 {
		return fmt.Errorf("core: rows per rank (%d) must be a power of two for the cipher domain", rows)
	}
	if c.GroupSize <= 0 || uint64(c.GroupSize) > rows {
		return fmt.Errorf("core: group size %d invalid for %d rows", c.GroupSize, rows)
	}
	if rows%uint64(c.GroupSize) != 0 {
		return fmt.Errorf("core: group size %d must divide the row space %d", c.GroupSize, rows)
	}
	return nil
}

// NM returns the mitigation threshold (NRH / 2, §V-C).
func (c Config) NM() uint32 { return c.NRH / 2 }

// groupSize returns GroupSize with the default applied, so the derived
// accessors work on raw configs too.
func (c Config) groupSize() int {
	if c.GroupSize == 0 {
		return DefaultGroupSize
	}
	return c.GroupSize
}

// NumGroups returns the RGC table size (rows per rank / group size; 8K
// in the baseline).
func (c Config) NumGroups() int {
	return int(c.Geometry.RowsPerRank() / uint64(c.groupSize()))
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
// the paper's headline cost (§VI-H).
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
