// Package hydra implements the Hydra baseline tracker (Qureshi et al.,
// ISCA 2022; paper §III-A). Hydra is a hybrid: a Group Counter Table
// (GCT) tracks 128-row groups until a group reaches NGC = 0.8 x NM,
// after which the group's rows are tracked individually. Per-row
// counters live in a reserved DRAM region (the Row Counter Table, RCT)
// with a small SRAM Row Counter Cache (RCC: 4K entries per rank, 32-way,
// random eviction) in front. Every RCC miss costs one DRAM read (fetch)
// plus one DRAM write (evicted counter update) — the shared-structure
// traffic that the paper's Perf-Attack (Figure 2a) saturates.
package hydra

import (
	"dapper/internal/cache"
	"dapper/internal/dram"
	"dapper/internal/flatmap"
	"dapper/internal/rh"
)

// Hydra's sizing, from the original design.
const (
	groupSize  = 128     // rows per group counter
	rccEntries = 4096    // Row Counter Cache entries per rank
	rccWays    = 32      // RCC associativity (random eviction)
	seed       = 0x44D8A // keys the RCC's eviction choices
)

// resetWindow is the structure reset period (tREFW).
var resetWindow = dram.DDR5().TREFW

// Tracker is one channel's Hydra instance.
type Tracker struct {
	geo     dram.Geometry
	nm      uint32 // mitigation threshold NRH/2
	ngc     uint32 // group-counter threshold: 80% of NM (§III-A)
	channel int
	ranks   []rankState
	nextRst dram.Cycle
	stats   rh.Stats
	resets  uint64 // tREFW structure clears (telemetry)
}

type rankState struct {
	gct []uint32               // group counters
	rcc *cache.Cache           // which per-row counters are SRAM-resident
	rct *flatmap.Table[uint32] // authoritative per-row counts ("in DRAM")
}

// New builds a Hydra tracker for one channel.
func New(channel int, geo dram.Geometry, nrh uint32) *Tracker {
	nm := nrh / 2
	t := &Tracker{
		geo:     geo,
		nm:      nm,
		ngc:     nm * 8 / 10,
		channel: channel,
		ranks:   make([]rankState, geo.Ranks),
		nextRst: resetWindow,
	}
	groups := (geo.RowsPerRank() + groupSize - 1) / groupSize // the last group may be partial
	for r := range t.ranks {
		t.ranks[r] = rankState{
			gct: make([]uint32, groups),
			rcc: cache.MustNew(cache.Config{
				Sets:   rccEntries / rccWays,
				Ways:   rccWays,
				Policy: cache.Random,
				Seed:   seed ^ uint64(channel)<<24 ^ uint64(r),
			}),
			rct: flatmap.New[uint32](4 * rccEntries),
		}
	}
	return t
}

// Name implements rh.Tracker.
func (t *Tracker) Name() string { return "Hydra" }

// OnActivate implements rh.Tracker.
func (t *Tracker) OnActivate(now dram.Cycle, loc dram.Loc, buf []rh.Action) []rh.Action {
	t.stats.Activations++
	rk := &t.ranks[loc.Rank]
	idx := t.geo.RankRowIndex(loc)
	g := idx / groupSize

	if rk.gct[g] < t.ngc {
		// Group-tracking phase: cheap, SRAM-only.
		rk.gct[g]++
		if rk.gct[g] == t.ngc {
			// Transition to per-row tracking: rows inherit the group
			// count (conservative, as in the original design).
			end := min((g+1)*groupSize, t.geo.RowsPerRank())
			for i := g * groupSize; i < end; i++ {
				rk.rct.Set(i, rk.gct[g])
			}
		}
		return buf
	}

	// Per-row phase: the counter must be in the RCC to be updated.
	res := rk.rcc.Access(idx, true)
	if !res.Hit {
		// Fetch from the RCT in DRAM, write back the displaced counter.
		buf = append(buf, rh.Action{Kind: rh.InjectRead, Loc: t.counterLoc(idx)})
		t.stats.InjectedReads++
		if res.Evicted {
			buf = append(buf, rh.Action{Kind: rh.InjectWrite, Loc: t.counterLoc(res.EvictedKey)})
			t.stats.InjectedWrites++
		}
	}
	cnt := rk.rct.Ref(idx)
	*cnt++
	if *cnt >= t.nm {
		*cnt = 0
		t.stats.Mitigations++
		t.stats.VictimRefreshes++
		buf = append(buf, rh.Action{Kind: rh.RefreshVictims, Loc: loc, Row: loc.Row})
	}
	return buf
}

// counterLoc maps a per-row counter to its home in the reserved DRAM
// region: counters pack 32 to a cache line, lines stripe across the
// channel's banks at the top of the row space.
func (t *Tracker) counterLoc(idx uint64) dram.Loc {
	g := t.geo
	line := idx / 32
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

// Tick implements rh.Tracker: periodic structure reset every tREFW.
func (t *Tracker) Tick(now dram.Cycle, buf []rh.Action) []rh.Action {
	if now < t.nextRst {
		return buf
	}
	t.nextRst += resetWindow
	t.resets++
	for r := range t.ranks {
		rk := &t.ranks[r]
		for i := range rk.gct {
			rk.gct[i] = 0
		}
		rk.rcc.Reset()
		rk.rct.Reset()
	}
	return buf
}

// Stats implements rh.Tracker.
func (t *Tracker) Stats() rh.Stats { return t.stats }

// TableOccupancy implements rh.TableReporter: the Row Counter Cache's
// fill level across ranks (the structure the Perf-Attack thrashes),
// with tREFW structure clears as resets.
func (t *Tracker) TableOccupancy() rh.TableOccupancy {
	occ := rh.TableOccupancy{Resets: t.resets}
	for r := range t.ranks {
		occ.Used += t.ranks[r].rcc.Occupancy()
		occ.Capacity += rccEntries
	}
	return occ
}

// GroupCount exposes a GCT entry (test hook).
func (t *Tracker) GroupCount(loc dram.Loc) uint32 {
	idx := t.geo.RankRowIndex(loc)
	return t.ranks[loc.Rank].gct[idx/groupSize]
}

// RowCount exposes a per-row counter (test hook).
func (t *Tracker) RowCount(loc dram.Loc) uint32 {
	v, _ := t.ranks[loc.Rank].rct.Get(t.geo.RankRowIndex(loc))
	return v
}
