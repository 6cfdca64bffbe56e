// Package rh defines the contract between RowHammer trackers and the
// memory controller: the Tracker interface, the Action vocabulary a
// tracker uses to request mitigations or extra DRAM traffic, and shared
// helpers (victim enumeration, mitigation command modes). The DAPPER
// trackers (internal/core) and every baseline (internal/trackers/...)
// implement Tracker; the memory controller (internal/mem) consumes it.
package rh

import (
	"fmt"
	"strings"

	"dapper/internal/dram"
)

// ActionKind enumerates what a tracker can ask the memory controller to
// do in response to an activation.
type ActionKind uint8

const (
	// RefreshVictims issues a victim-row refresh (VRR) for the
	// aggressor row in Loc: the bank is blocked for the configured VRR
	// time and the neighbors within the blast radius are refreshed.
	RefreshVictims ActionKind = iota
	// RefreshVictimsRFMsb mitigates via a Same-Bank RFM command:
	// blocks the same bank index across all bank groups of the rank.
	RefreshVictimsRFMsb
	// RefreshVictimsDRFMsb mitigates via a Same-Bank DRFM command
	// (240ns, supports blast radius 2), likewise blocking the bank
	// index across all bank groups (§VI-G).
	RefreshVictimsDRFMsb
	// BulkRefreshRank refreshes every row in Loc's rank and blocks the
	// rank for the sweep duration: CoMeT's structure reset (§III-B C.3).
	BulkRefreshRank
	// BulkRefreshChannel refreshes every row in the channel:
	// ABACUS's spillover-overflow reset (§III-B D.2).
	BulkRefreshChannel
	// InjectRead fetches a RowHammer counter from reserved DRAM
	// (Hydra RCC miss, START counter miss): one extra 64B read.
	InjectRead
	// InjectWrite writes back an evicted/updated counter: one extra
	// 64B write.
	InjectWrite
)

// Action is one tracker-requested operation. Loc names the bank (for
// refreshes) or the full address (for injected counter traffic); Row is
// the aggressor row for victim refreshes.
type Action struct {
	Kind ActionKind
	Loc  dram.Loc
	Row  uint32
}

// MitigationMode selects which DRAM command a tracker uses for victim
// refreshes; the paper evaluates VRR at blast radius 1 (default), blast
// radius 2, RFMsb and DRFMsb (§VI-G, §VI-J).
type MitigationMode uint8

const (
	VRR1 MitigationMode = iota // per-bank VRR, blast radius 1
	VRR2                       // per-bank VRR, blast radius 2
	RFMsb
	DRFMsb
)

// ActionKind returns the Action kind implementing this mode.
func (m MitigationMode) ActionKind() ActionKind {
	switch m {
	case RFMsb:
		return RefreshVictimsRFMsb
	case DRFMsb:
		return RefreshVictimsDRFMsb
	default:
		return RefreshVictims
	}
}

func (m MitigationMode) String() string {
	switch m {
	case VRR1:
		return "VRR-BR1"
	case VRR2:
		return "VRR-BR2"
	case RFMsb:
		return "RFMsb"
	case DRFMsb:
		return "DRFMsb"
	}
	return "unknown"
}

// Modes returns every mitigation mode in declaration order.
func Modes() []MitigationMode {
	return []MitigationMode{VRR1, VRR2, RFMsb, DRFMsb}
}

// ParseMode returns the mode whose String() matches name
// (case-insensitively, so flag values like "vrr-br1" work).
func ParseMode(name string) (MitigationMode, error) {
	for _, m := range Modes() {
		if strings.EqualFold(m.String(), name) {
			return m, nil
		}
	}
	return VRR1, fmt.Errorf("rh: unknown mitigation mode %q (known: %v)", name, Modes())
}

// BlastRadius returns how many rows on each side of an aggressor the
// mode refreshes.
func (m MitigationMode) BlastRadius() int {
	if m == VRR2 || m == DRFMsb {
		return 2
	}
	return 1
}

// Victims appends the victim rows of aggressor within the blast radius,
// clamped to [0, rowsPerBank).
func Victims(aggressor uint32, blastRadius int, rowsPerBank uint32, buf []uint32) []uint32 {
	for d := 1; d <= blastRadius; d++ {
		if aggressor >= uint32(d) {
			buf = append(buf, aggressor-uint32(d))
		}
		if aggressor+uint32(d) < rowsPerBank {
			buf = append(buf, aggressor+uint32(d))
		}
	}
	return buf
}

// Stats is the common tracker-side statistics block.
type Stats struct {
	Activations     uint64 // ACTs observed
	Mitigations     uint64 // mitigation events triggered
	VictimRefreshes uint64 // victim-refresh commands issued
	BulkResets      uint64 // whole-rank/channel reset refreshes
	InjectedReads   uint64 // counter reads sent to DRAM
	InjectedWrites  uint64 // counter writes sent to DRAM
	Throttled       uint64 // requests delayed by throttling
}

// Tracker observes every DRAM activation and may request mitigations.
// Implementations are single-threaded (one tracker per simulated
// system).
//
// OnActivate is called by the memory controller when an ACT is issued;
// the tracker appends any actions to buf and returns it (append-style to
// keep the per-ACT fast path allocation-free).
//
// Tick is called every tREFI so trackers can run periodic work (CoMeT's
// tREFW/3 resets, DAPPER's window resets and rekeying).
type Tracker interface {
	Name() string
	OnActivate(now dram.Cycle, loc dram.Loc, buf []Action) []Action
	Tick(now dram.Cycle, buf []Action) []Action
	Stats() Stats
}

// Throttler is an optional Tracker extension for throttling-based
// defenses (BlockHammer): the memory controller consults NextAllowed
// before activating a row, leaving the request queued until the returned
// cycle.
//
// NextAllowed must be a pure query (no state changes, no statistics),
// and with no intervening activations it must keep returning the same
// permission time until that time has passed. The event-driven engine
// relies on both properties to predict when a throttled request becomes
// schedulable without polling every cycle, and a controller with a Sink
// attached also queries it at enqueue for the serve events' throttle
// gate.
type Throttler interface {
	NextAllowed(now dram.Cycle, loc dram.Loc) dram.Cycle
}

// LLCReserver is an optional Tracker extension for defenses that carve
// the last-level cache (START reserves half the LLC for RowHammer
// counters): the system shrinks the LLC visible to applications by the
// returned fraction.
type LLCReserver interface {
	LLCReservedFraction() float64
}

// TimingTaxer is an optional Tracker extension for defenses that stretch
// DRAM timing (PRAC's per-activation counter read-modify-write): the
// system adds the returned tax to the effective row cycle time.
type TimingTaxer interface {
	ActTax() dram.Cycle
}

// TableOccupancy is a point-in-time snapshot of a tracker's counting
// structure, for telemetry: how full the bounded table is and how many
// times it has been reset (epoch rollovers, early resets, bulk sweeps —
// whatever "reset" means for the design).
type TableOccupancy struct {
	// Used is the number of live entries (rows/groups currently tracked,
	// non-zero counters — the design's natural notion of occupancy).
	Used int
	// Capacity is the structure's bound; Used/Capacity is the pressure a
	// performance attack drives toward 1.
	Capacity int
	// Resets counts structure resets so far (monotone non-decreasing).
	Resets uint64
}

// TableReporter is an optional Tracker extension for designs with a
// bounded counting table worth watching under attack (CoMeT's RAT,
// Hydra's RCC, DAPPER's group counters). TableOccupancy must be a pure
// query: the controller polls it after every periodic tracker tick
// whenever a Sink is attached (an audited run included), so
// implementations may do O(table) work but must not change state.
type TableReporter interface {
	TableOccupancy() TableOccupancy
}

// Nop is the insecure baseline: it tracks nothing and never mitigates.
type Nop struct{ stats Stats }

// NewNop returns the no-mitigation baseline tracker.
func NewNop() *Nop { return &Nop{} }

// Name implements Tracker.
func (n *Nop) Name() string { return "none" }

// OnActivate implements Tracker.
func (n *Nop) OnActivate(_ dram.Cycle, _ dram.Loc, buf []Action) []Action {
	n.stats.Activations++
	return buf
}

// Tick implements Tracker.
func (n *Nop) Tick(_ dram.Cycle, buf []Action) []Action { return buf }

// Stats implements Tracker.
func (n *Nop) Stats() Stats { return n.stats }
