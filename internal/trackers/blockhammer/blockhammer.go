// Package blockhammer implements the BlockHammer baseline (Yaglikci et
// al., HPCA 2021; paper §VI-I). BlockHammer estimates per-row activation
// rates with paired counting Bloom filters over rotating epochs and
// throttles (delays) activations of rows whose estimate crosses the
// blacklist threshold, pacing them so no row can reach NRH within
// tREFW. Because Bloom estimates only overestimate, benign rows that
// collide with hot filter counters get throttled too — the false-
// positive slowdown that explodes at ultra-low NRH (25% at 500, 66% at
// 125 in the paper's Figure 14).
package blockhammer

import (
	"dapper/internal/dram"
	"dapper/internal/flatmap"
	"dapper/internal/rh"
	"dapper/internal/sketch"
)

// BlockHammer's sizing, from the original design: one 1K-counter,
// 4-hash counting Bloom filter per bank and epoch.
const (
	filterCounters = 1024
	filterHashes   = 4
	seed           = 0xB70C4
)

// window is the observation window (tREFW); epochs are window/2.
var window = dram.DDR5().TREFW

// Tracker is one channel's BlockHammer instance.
type Tracker struct {
	geo dram.Geometry
	// nbl is the blacklisting threshold (NRH/2: a row halfway to the
	// threshold within a window gets paced).
	nbl uint32
	// delay is the enforced minimum spacing between activations of a
	// blacklisted row: the remaining budget (NRH - NBL) spread over a
	// full window, i.e. 2*tREFW/NRH.
	delay    dram.Cycle
	channel  int
	filters  []*sketch.CountingBloom    // per flat bank, active epoch
	previous []*sketch.CountingBloom    // previous epoch (history term)
	lastAct  *flatmap.Table[dram.Cycle] // blacklisted rows' last allowed ACT
	epochEnd dram.Cycle
	stats    rh.Stats
}

// New builds a BlockHammer instance for one channel.
func New(channel int, geo dram.Geometry, nrh uint32) *Tracker {
	t := &Tracker{
		geo:      geo,
		nbl:      nrh / 2,
		delay:    2 * window / dram.Cycle(nrh),
		channel:  channel,
		filters:  make([]*sketch.CountingBloom, geo.BanksPerChannel()),
		previous: make([]*sketch.CountingBloom, geo.BanksPerChannel()),
		lastAct:  flatmap.New[dram.Cycle](filterCounters),
		epochEnd: window / 2,
	}
	for b := range t.filters {
		t.filters[b] = sketch.NewCountingBloom(filterCounters, filterHashes, seed^uint64(channel)<<20^uint64(b))
		t.previous[b] = sketch.NewCountingBloom(filterCounters, filterHashes, seed^uint64(channel)<<20^uint64(b)^0xEE)
	}
	return t
}

// Name implements rh.Tracker.
func (t *Tracker) Name() string { return "BlockHammer" }

func key(fb int, row uint32) uint64 { return uint64(fb)<<32 | uint64(row) }

// estimate combines the two epoch filters (activations in the current
// window cannot exceed their sum).
func (t *Tracker) estimate(fb int, row uint32) uint32 {
	return t.filters[fb].Estimate(key(fb, row)) + t.previous[fb].Estimate(key(fb, row))/2
}

// NextAllowed implements rh.Throttler: blacklisted rows are paced to
// delay between activations.
func (t *Tracker) NextAllowed(now dram.Cycle, loc dram.Loc) dram.Cycle {
	fb := t.geo.FlatBank(loc)
	if t.estimate(fb, loc.Row) < t.nbl {
		return now
	}
	k := key(fb, loc.Row)
	last, ok := t.lastAct.Get(k)
	if !ok {
		return now
	}
	allowed := last + t.delay
	if allowed < now {
		return now
	}
	return allowed
}

// OnActivate implements rh.Tracker: count the activation; record pacing
// state for blacklisted rows. BlockHammer never refreshes — throttling
// alone keeps every row below NRH per window.
func (t *Tracker) OnActivate(now dram.Cycle, loc dram.Loc, buf []rh.Action) []rh.Action {
	t.stats.Activations++
	fb := t.geo.FlatBank(loc)
	k := key(fb, loc.Row)
	est := t.filters[fb].Add(k)
	if est+t.previous[fb].Estimate(k)/2 >= t.nbl {
		t.lastAct.Set(k, now)
		t.stats.Throttled++
	}
	return buf
}

// Tick implements rh.Tracker: rotate filter epochs every tREFW/2.
func (t *Tracker) Tick(now dram.Cycle, buf []rh.Action) []rh.Action {
	if now < t.epochEnd {
		return buf
	}
	t.epochEnd += window / 2
	t.filters, t.previous = t.previous, t.filters
	for b := range t.filters {
		t.filters[b].Reset()
	}
	t.lastAct.Reset()
	return buf
}

// Stats implements rh.Tracker.
func (t *Tracker) Stats() rh.Stats { return t.stats }

// Blacklisted reports whether a row is currently paced (test hook).
func (t *Tracker) Blacklisted(loc dram.Loc) bool {
	fb := t.geo.FlatBank(loc)
	return t.estimate(fb, loc.Row) >= t.nbl
}
