// Package secaudit is the shadow security oracle: an rh.Sink that
// watches the memory controllers' activation / mitigation / refresh
// event stream and independently checks the property every RowHammer
// tracker exists to provide — that no DRAM row absorbs NRH hammering
// activations between two refreshes of that row.
//
// The oracle keeps a per-(channel, rank, bank) row ledger on the victim
// side: each ACT on row R charges R's neighbors within the hammer
// radius; a row's charge resets when the row is refreshed — by a
// victim-refresh command (VRR/RFMsb/DRFMsb, with the mitigation mode's
// blast radius), by its per-row auto-refresh boundary (REF commands
// cycle over the row space every tREFW), or by a bulk structure-reset
// sweep. A row whose charge reaches NRH unrefreshed is an Escape: the
// defense failed for that row. The margin (1 - MaxCount/NRH) says how
// close the tracker let any row get.
//
// The ledger is driven only by sink events, never by tracker
// internals, so it audits trackers as black boxes — and because the
// controllers emit an identical event stream under both simulation
// engines, equal audit reports across engines are a second, independent
// equivalence check on the event-driven time-skip loop.
package secaudit

import (
	"fmt"
	"sort"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

// hammerRadius is how far an activation's disturbance reaches: the
// immediate neighbors. Mitigation modes with blast radius 2 refresh
// further out (defense in depth against half-double effects), but the
// NRH threshold itself — and therefore the escape criterion — is defined
// on adjacent rows, matching how every evaluated tracker sizes its
// mitigation threshold (NM = NRH/2 covers two adjacent aggressors).
const hammerRadius = 1

// maxRecords bounds Report.Worst.
const maxRecords = 32

// Config scopes one audit. The per-row auto-refresh boundaries follow
// DDR5's tREFI and tREFW (dram.DDR5).
type Config struct {
	Geometry dram.Geometry
	// NRH is the RowHammer threshold the tracker under audit is
	// configured for; charge reaching NRH is an escape.
	NRH uint32
	// Mode is the mitigation command flavor the system runs with; it
	// sets the blast radius of RefreshVictims commands.
	Mode rh.MitigationMode
	// CountInjected charges tracker-generated counter traffic (Hydra/
	// START RCT reads and writes) like demand activations. Off by
	// default: trackers cannot observe their own injected ACTs through
	// OnActivate, so charging them audits a property no evaluated design
	// claims; the report still tallies them separately.
	CountInjected bool
}

// Escape is one detected guarantee violation: the moment a row's
// accumulated hammer charge reached NRH with no refresh covering it.
type Escape struct {
	Channel   int        `json:"channel"`
	Rank      int        `json:"rank"`
	BankGroup int        `json:"bank_group"`
	Bank      int        `json:"bank"`
	Row       uint32     `json:"row"`
	At        dram.Cycle `json:"at"`
	Count     uint32     `json:"count"`
}

// Report is the audit verdict. All fields are derived purely from the
// deterministic event stream — no wall clock, no map-order dependence —
// so equal runs produce byte-identical serialized reports, and the
// event and cycle engines must produce equal reports for the same
// configuration.
type Report struct {
	NRH  uint32 `json:"nrh"`
	Mode string `json:"mode"`
	// CountInjected records whether injected ACTs were charged.
	CountInjected bool `json:"count_injected,omitempty"`

	ACTs         uint64 `json:"acts"`
	InjectedACTs uint64 `json:"injected_acts"`
	Mitigations  uint64 `json:"mitigations"`
	Refreshes    uint64 `json:"refreshes"`
	BulkResets   uint64 `json:"bulk_resets"`

	// Escapes counts escape events (one per row per charge period);
	// EscapedRows counts distinct rows that ever escaped.
	Escapes     uint64 `json:"escapes"`
	EscapedRows int    `json:"escaped_rows"`
	// MaxCount is the highest charge any row ever reached; Margin is
	// 1 - MaxCount/NRH (how much headroom the tracker kept; <= 0 once a
	// row escaped).
	MaxCount uint32  `json:"max_count"`
	Margin   float64 `json:"margin"`

	// Worst lists the earliest escapes in (cycle, location) order,
	// truncated to 32 records.
	Worst []Escape `json:"worst,omitempty"`
}

// Secure reports whether the audit saw zero escapes.
func (r *Report) Secure() bool { return r.Escapes == 0 }

// Summary renders the one-line verdict.
func (r *Report) Summary() string {
	if r.Secure() {
		return fmt.Sprintf("secure: 0 escapes, max count %d/%d (margin %.1f%%)",
			r.MaxCount, r.NRH, r.Margin*100)
	}
	return fmt.Sprintf("INSECURE: %d escapes over %d rows, max count %d/%d",
		r.Escapes, r.EscapedRows, r.MaxCount, r.NRH)
}

// Audit owns one shadow ledger per channel. Create it, hand Sink to
// sim.Config, run, then call Report.
type Audit struct {
	cfg   Config
	chans []*channelAuditor
}

// New builds an audit for a system configuration.
func New(cfg Config) (*Audit, error) {
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if cfg.NRH == 0 {
		return nil, fmt.Errorf("secaudit: NRH must be positive")
	}
	a := &Audit{cfg: cfg, chans: make([]*channelAuditor, cfg.Geometry.Channels)}
	for ch := range a.chans {
		a.chans[ch] = newChannelAuditor(ch, cfg)
	}
	return a, nil
}

// MustNew is New panicking on configuration errors.
func MustNew(cfg Config) *Audit {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Sink returns the per-channel sink, matching sim.SinkFactory.
func (a *Audit) Sink(channel int) rh.Sink { return a.chans[channel] }

// Report merges the per-channel ledgers into the audit verdict.
func (a *Audit) Report() *Report {
	r := &Report{
		NRH:           a.cfg.NRH,
		Mode:          a.cfg.Mode.String(),
		CountInjected: a.cfg.CountInjected,
		Margin:        1,
	}
	var worst []Escape
	for _, c := range a.chans {
		r.ACTs += c.acts
		r.InjectedACTs += c.injActs
		r.Mitigations += c.mitigations
		r.Refreshes += c.refreshes
		r.BulkResets += c.bulkResets
		r.Escapes += c.escapes
		r.EscapedRows += len(c.escapedEver)
		if c.maxCount > r.MaxCount {
			r.MaxCount = c.maxCount
		}
		worst = append(worst, c.records...)
	}
	r.Margin = 1 - float64(r.MaxCount)/float64(r.NRH)
	sort.Slice(worst, func(i, j int) bool {
		a, b := worst[i], worst[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Channel != b.Channel {
			return a.Channel < b.Channel
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.BankGroup != b.BankGroup {
			return a.BankGroup < b.BankGroup
		}
		if a.Bank != b.Bank {
			return a.Bank < b.Bank
		}
		return a.Row < b.Row
	})
	if len(worst) > maxRecords {
		worst = worst[:maxRecords]
	}
	r.Worst = worst
	return r
}

// channelAuditor implements rh.Sink for one channel. Ledger keys
// pack (flat bank, row); charge and escape state are per charge period
// (reset whenever the row is refreshed), escapedEver spans the run.
type channelAuditor struct {
	channel int
	cfg     Config
	// segments is how many REF slots cycle over the row space (tREFW /
	// tREFI: 8205 for DDR5).
	segments uint64
	refSlots []uint64 // per rank: REFs observed so far

	damage      map[uint64]uint32
	escaped     map[uint64]struct{}
	escapedEver map[uint64]struct{}

	acts, injActs uint64
	mitigations   uint64
	refreshes     uint64
	bulkResets    uint64
	escapes       uint64
	maxCount      uint32
	records       []Escape
	victimBuf     []uint32
}

func newChannelAuditor(channel int, cfg Config) *channelAuditor {
	t := dram.DDR5()
	return &channelAuditor{
		channel:     channel,
		cfg:         cfg,
		segments:    uint64(t.TREFW / t.TREFI),
		refSlots:    make([]uint64, cfg.Geometry.Ranks),
		damage:      make(map[uint64]uint32),
		escaped:     make(map[uint64]struct{}),
		escapedEver: make(map[uint64]struct{}),
	}
}

func (c *channelAuditor) key(fb int, row uint32) uint64 {
	return uint64(fb)<<32 | uint64(row)
}

// Event implements rh.Sink: the ledger folds activations, mitigation
// commands, auto-refreshes and bulk sweeps; the performance-side kinds
// pass through.
func (c *channelAuditor) Event(e rh.Event) {
	switch e.Kind {
	case rh.EvACT:
		c.activate(e.At, e.Loc, e.Injected)
	case rh.EvMitigation:
		c.mitigate(e.Action, e.Loc, e.Row)
	case rh.EvRefresh:
		c.refresh(e.Rank)
	case rh.EvBulk:
		c.bulkRefresh(e.Rank)
	}
}

// activate charges the activated row's neighbors and flags any that
// reach NRH.
func (c *channelAuditor) activate(now dram.Cycle, loc dram.Loc, injected bool) {
	if injected {
		c.injActs++
		if !c.cfg.CountInjected {
			return
		}
	} else {
		c.acts++
	}
	fb := c.cfg.Geometry.FlatBank(loc)
	c.victimBuf = rh.Victims(loc.Row, hammerRadius, c.cfg.Geometry.RowsPerBank, c.victimBuf[:0])
	for _, v := range c.victimBuf {
		k := c.key(fb, v)
		d := c.damage[k] + 1
		c.damage[k] = d
		if d > c.maxCount {
			c.maxCount = d
		}
		if d < c.cfg.NRH {
			continue
		}
		if _, dup := c.escaped[k]; dup {
			continue
		}
		c.escaped[k] = struct{}{}
		c.escapedEver[k] = struct{}{}
		c.escapes++
		// Bound the per-channel detail; counters above stay exact.
		if len(c.records) < maxRecords {
			c.records = append(c.records, Escape{
				Channel: c.channel, Rank: loc.Rank,
				BankGroup: loc.BankGroup, Bank: loc.Bank,
				Row: v, At: now, Count: d,
			})
		}
	}
}

// mitigate clears the rows a victim-refresh command refreshed. RefreshVictims covers the
// aggressor's neighbors in its own bank at the mode's blast radius;
// the Same-Bank RFM/DRFM commands apply the refresh to the same bank
// index in every bank group of the rank, mirroring the controller's
// blocking semantics.
func (c *channelAuditor) mitigate(kind rh.ActionKind, loc dram.Loc, row uint32) {
	c.mitigations++
	br := c.cfg.Mode.BlastRadius()
	sameBank := false
	switch kind {
	case rh.RefreshVictimsRFMsb:
		br, sameBank = 1, true
	case rh.RefreshVictimsDRFMsb:
		br, sameBank = 2, true
	}
	c.victimBuf = rh.Victims(row, br, c.cfg.Geometry.RowsPerBank, c.victimBuf[:0])
	if !sameBank {
		c.resetRows(c.cfg.Geometry.FlatBank(loc), c.victimBuf)
		return
	}
	for bg := 0; bg < c.cfg.Geometry.BankGroups; bg++ {
		l := loc
		l.BankGroup = bg
		c.resetRows(c.cfg.Geometry.FlatBank(l), c.victimBuf)
	}
}

// refresh advances the rank's REF slot: each REF command refreshes the
// rank's next row segment (slot s covers rows
// [s*rows/segments, (s+1)*rows/segments) of every bank), closing those
// rows' charge periods.
func (c *channelAuditor) refresh(rank int) {
	c.refreshes++
	slot := c.refSlots[rank] % c.segments
	c.refSlots[rank]++
	rows := uint64(c.cfg.Geometry.RowsPerBank)
	start := uint32(slot * rows / c.segments)
	end := uint32((slot + 1) * rows / c.segments)
	if start == end {
		return
	}
	base := rank * c.cfg.Geometry.BanksPerRank()
	buf := c.victimBuf[:0]
	for row := start; row < end; row++ {
		buf = append(buf, row)
	}
	c.victimBuf = buf
	for b := 0; b < c.cfg.Geometry.BanksPerRank(); b++ {
		c.resetRows(base+b, buf)
	}
}

// bulkRefresh resets every ledger entry in the swept rank.
func (c *channelAuditor) bulkRefresh(rank int) {
	c.bulkResets++
	base := rank * c.cfg.Geometry.BanksPerRank()
	limit := base + c.cfg.Geometry.BanksPerRank()
	for k := range c.damage {
		if fb := int(k >> 32); fb >= base && fb < limit {
			delete(c.damage, k)
		}
	}
	for k := range c.escaped {
		if fb := int(k >> 32); fb >= base && fb < limit {
			delete(c.escaped, k)
		}
	}
}

func (c *channelAuditor) resetRows(fb int, rows []uint32) {
	for _, row := range rows {
		k := c.key(fb, row)
		delete(c.damage, k)
		delete(c.escaped, k)
	}
}
