// Package start implements the START baseline tracker (Saxena and
// Qureshi, HPCA 2024; paper §III-A). START stores per-row RowHammer
// counters in a reserved half of the last-level cache. When the row
// population exceeds what the reserved region can hold (the paper's
// evaluated system: 8M counters vs. 4M slots), counters spill to a
// reserved DRAM region and the LLC half acts as a counter cache — so a
// streaming adversary (Figure 2b) both halves the effective LLC for
// benign applications and turns every counter miss into extra DRAM
// reads and writes.
package start

import (
	"dapper/internal/cache"
	"dapper/internal/dram"
	"dapper/internal/flatmap"
	"dapper/internal/rh"
)

// CountersPerLine is how many row counters fit one 64B cache line.
const CountersPerLine = 32

// START's sizing, from the original design.
const (
	reservedFrac = 0.5 // share of the LLC reserved for counters
	llcWays      = 16  // LLC associativity
	seed         = 0x57A27
)

// resetWindow is the counter reset period (tREFW).
var resetWindow = dram.DDR5().TREFW

// Tracker is one channel's START instance.
type Tracker struct {
	geo     dram.Geometry
	nm      uint32 // mitigation threshold NRH/2
	channel int
	// counterCache models the reserved LLC region holding counter
	// lines; a miss is a DRAM fetch (+ write-back when dirty).
	counterCache *cache.Cache
	counts       *flatmap.Table[uint32] // authoritative per-row counts
	nextRst      dram.Cycle
	stats        rh.Stats
}

// New builds a START tracker for one channel; llcBytes is the full LLC
// capacity it reserves its counter region from.
func New(channel int, geo dram.Geometry, nrh uint32, llcBytes int) *Tracker {
	reservedBytes := int(float64(llcBytes) * reservedFrac)
	lines := reservedBytes / 64
	if lines < llcWays {
		lines = llcWays
	}
	cc := cache.MustNew(cache.Config{
		Sets: lines / llcWays, Ways: llcWays,
		Seed: seed ^ uint64(channel),
	})
	return &Tracker{
		geo:          geo,
		nm:           nrh / 2,
		channel:      channel,
		counterCache: cc,
		counts:       flatmap.New[uint32](4 * lines),
		nextRst:      resetWindow,
	}
}

// Name implements rh.Tracker.
func (t *Tracker) Name() string { return "START" }

// LLCReservedFraction implements rh.LLCReserver: the system halves the
// LLC available to applications.
func (t *Tracker) LLCReservedFraction() float64 { return reservedFrac }

// OnActivate implements rh.Tracker.
func (t *Tracker) OnActivate(now dram.Cycle, loc dram.Loc, buf []rh.Action) []rh.Action {
	t.stats.Activations++
	g := t.geo
	idx := uint64(loc.Rank)*g.RowsPerRank() + g.RankRowIndex(loc)
	line := idx / CountersPerLine

	res := t.counterCache.Access(line, true)
	if !res.Hit {
		buf = append(buf, rh.Action{Kind: rh.InjectRead, Loc: t.counterLoc(line)})
		t.stats.InjectedReads++
		if res.Evicted && res.EvictedDirty {
			buf = append(buf, rh.Action{Kind: rh.InjectWrite, Loc: t.counterLoc(res.EvictedKey)})
			t.stats.InjectedWrites++
		}
	}
	cnt := t.counts.Ref(idx)
	*cnt++
	if *cnt >= t.nm {
		*cnt = 0
		t.stats.Mitigations++
		t.stats.VictimRefreshes++
		buf = append(buf, rh.Action{Kind: rh.RefreshVictims, Loc: loc, Row: loc.Row})
	}
	return buf
}

// counterLoc maps a counter line to the reserved DRAM region (striped
// across banks at the top of the row space, like Hydra's RCT).
func (t *Tracker) counterLoc(line uint64) dram.Loc {
	g := t.geo
	banks := uint64(g.BanksPerChannel())
	bank := int(line % banks)
	inBank := line / banks
	return dram.Loc{
		Channel:   t.channel,
		Rank:      bank / g.BanksPerRank(),
		BankGroup: (bank % g.BanksPerRank()) / g.BanksPerGroup,
		Bank:      bank % g.BanksPerGroup,
		Row:       g.RowsPerBank - 1 - uint32(inBank/uint64(g.BlocksPerRow()))%256,
		Col:       int(inBank % uint64(g.BlocksPerRow())),
	}
}

// Tick implements rh.Tracker.
func (t *Tracker) Tick(now dram.Cycle, buf []rh.Action) []rh.Action {
	if now < t.nextRst {
		return buf
	}
	t.nextRst += resetWindow
	t.counterCache.Reset()
	t.counts.Reset()
	return buf
}

// Stats implements rh.Tracker.
func (t *Tracker) Stats() rh.Stats { return t.stats }
