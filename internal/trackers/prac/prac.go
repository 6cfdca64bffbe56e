// Package prac implements the PRAC baseline (Per Row Activation
// Counting, JEDEC DDR5 / QPRAC, paper §VI-K). PRAC keeps an exact
// activation counter inside every DRAM row; maintaining it requires a
// read-modify-write on every activation, which stretches the effective
// row cycle — a constant tax that dominates PRAC's overhead (the paper
// measures ~7% on benign applications even at NRH 4K). Mitigations use
// the Alert Back-Off (ABO) protocol when a counter crosses its
// threshold; with exact counting, mitigations are rare and Perf-Attacks
// gain nothing (Figure 17).
package prac

import (
	"dapper/internal/dram"
	"dapper/internal/rh"
)

// actTax is the per-activation counter update cost added to the row
// cycle. Calibrated to the paper's ~7% average benign overhead (§VI-K);
// the QPRAC design evaluates comparable extensions.
var actTax = dram.NS(14)

// resetWindow is the counter reset period (tREFW).
var resetWindow = dram.DDR5().TREFW

// Tracker is one channel's PRAC instance.
type Tracker struct {
	geo dram.Geometry
	// abo is the counter value that triggers an Alert Back-Off
	// mitigation: 3/4 NRH, so the alert fires with enough margin to
	// mitigate before NRH.
	abo     uint32
	channel int
	// counts holds per-row activation counters, allocated lazily per
	// bank (the real counters live inside the DRAM rows).
	counts  map[int][]uint32 // flat bank -> per-row counters
	nextRst dram.Cycle
	stats   rh.Stats
	alerts  uint64
}

// New builds a PRAC tracker for one channel.
func New(channel int, geo dram.Geometry, nrh uint32) *Tracker {
	return &Tracker{
		geo:     geo,
		abo:     nrh * 3 / 4,
		channel: channel,
		counts:  make(map[int][]uint32),
		nextRst: resetWindow,
	}
}

// Name implements rh.Tracker.
func (t *Tracker) Name() string { return "PRAC" }

// ActTax implements rh.TimingTaxer: the system stretches tRC by this
// amount for every activation.
func (t *Tracker) ActTax() dram.Cycle { return actTax }

// OnActivate implements rh.Tracker: exact per-row counting with ABO
// mitigation at the threshold.
func (t *Tracker) OnActivate(now dram.Cycle, loc dram.Loc, buf []rh.Action) []rh.Action {
	t.stats.Activations++
	fb := t.geo.FlatBank(loc)
	rows, ok := t.counts[fb]
	if !ok {
		rows = make([]uint32, t.geo.RowsPerBank)
		t.counts[fb] = rows
	}
	rows[loc.Row]++
	if rows[loc.Row] >= t.abo {
		rows[loc.Row] = 0
		t.alerts++
		t.stats.Mitigations++
		t.stats.VictimRefreshes++
		buf = append(buf, rh.Action{Kind: rh.RefreshVictims, Loc: loc, Row: loc.Row})
	}
	return buf
}

// Tick implements rh.Tracker: counters effectively reset as rows are
// refreshed each tREFW.
func (t *Tracker) Tick(now dram.Cycle, buf []rh.Action) []rh.Action {
	if now < t.nextRst {
		return buf
	}
	t.nextRst += resetWindow
	for _, rows := range t.counts {
		for i := range rows {
			rows[i] = 0
		}
	}
	return buf
}

// Stats implements rh.Tracker.
func (t *Tracker) Stats() rh.Stats { return t.stats }

// Alerts returns the number of ABO mitigations fired.
func (t *Tracker) Alerts() uint64 { return t.alerts }

// RowCount exposes a row's counter (test hook).
func (t *Tracker) RowCount(loc dram.Loc) uint32 {
	if rows, ok := t.counts[t.geo.FlatBank(loc)]; ok {
		return rows[loc.Row]
	}
	return 0
}
