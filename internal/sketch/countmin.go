// Package sketch implements the approximate counting structures that the
// baseline RowHammer trackers are built from: a Count-Min Sketch (CoMeT),
// a Misra-Gries summary with a spillover counter (ABACUS), and a counting
// Bloom filter (BlockHammer). All structures are deterministic for a
// given seed so simulations are reproducible.
package sketch

import "dapper/internal/llbc"

// CountMin is a Count-Min Sketch: d hash rows of w counters each. An
// item's estimate is the minimum of its d counters; estimates can only
// overestimate the true count (the property CoMeT relies on for safety:
// no aggressor is undercounted, so no mitigation is missed).
type CountMin struct {
	rows    int
	width   int
	counts  [][]uint32
	hashMul []uint64 // per-row odd multipliers
	hashAdd []uint64
}

// NewCountMin returns a sketch with rows hash functions of width counters
// each, keyed from seed.
func NewCountMin(rows, width int, seed uint64) *CountMin {
	if rows <= 0 || width <= 0 {
		panic("sketch: CountMin dimensions must be positive")
	}
	cm := &CountMin{
		rows:    rows,
		width:   width,
		counts:  make([][]uint32, rows),
		hashMul: make([]uint64, rows),
		hashAdd: make([]uint64, rows),
	}
	ks := llbc.KeyStream(seed, 2*rows)
	for i := 0; i < rows; i++ {
		cm.counts[i] = make([]uint32, width)
		cm.hashMul[i] = ks[2*i] | 1 // odd multiplier
		cm.hashAdd[i] = ks[2*i+1]
	}
	return cm
}

// Rows returns the number of hash rows (d).
func (cm *CountMin) Rows() int { return cm.rows }

// Width returns the number of counters per row (w).
func (cm *CountMin) Width() int { return cm.width }

func (cm *CountMin) index(row int, key uint64) int {
	h := (key*cm.hashMul[row] + cm.hashAdd[row])
	h ^= h >> 33
	return int(h % uint64(cm.width))
}

// Add increments the counters for key and returns the new estimate
// (minimum across rows after the increment).
func (cm *CountMin) Add(key uint64) uint32 {
	est := ^uint32(0)
	for i := 0; i < cm.rows; i++ {
		j := cm.index(i, key)
		if cm.counts[i][j] != ^uint32(0) { // saturate, never wrap
			cm.counts[i][j]++
		}
		if cm.counts[i][j] < est {
			est = cm.counts[i][j]
		}
	}
	return est
}

// Estimate returns the current (over-)estimate for key without mutating.
func (cm *CountMin) Estimate(key uint64) uint32 {
	est := ^uint32(0)
	for i := 0; i < cm.rows; i++ {
		if c := cm.counts[i][cm.index(i, key)]; c < est {
			est = c
		}
	}
	return est
}

// Reset zeroes all counters (CoMeT's periodic reset; the hash functions
// are kept, matching the hardware which only clears SRAM).
func (cm *CountMin) Reset() {
	for i := range cm.counts {
		row := cm.counts[i]
		for j := range row {
			row[j] = 0
		}
	}
}
