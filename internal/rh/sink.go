package rh

import "dapper/internal/dram"

// Sink is the one passive tap on a memory controller's command stream:
// every activation, mitigation command, auto-refresh and bulk sweep,
// every queue-population change and tracker-table snapshot, and every
// request serve and bank-blocking interval, in issue order. Sinks never
// influence scheduling or tracker behavior — they exist so the shadow
// security oracle (internal/secaudit), the windowed telemetry and the
// slowdown attribution (internal/telemetry) can fold the stream
// independently of the trackers' own bookkeeping.
//
// Event times are command times, not scheduling times (an activation
// delayed by a precharge reports the actual ACT cycle), so the stream
// is identical whether the controller is driven every cycle or only at
// event-engine wake points. One Sink instance watches one channel;
// implementations need no locking (controllers are single-threaded).
type Sink interface {
	Event(Event)
}

// EventKind names what an Event reports and so which of its fields
// carry data; the rest are zero.
type EventKind uint8

const (
	// EvACT is one row activation: At, Loc, Injected.
	EvACT EventKind = iota
	// EvMitigation is one victim-refresh command a tracker issued: At,
	// Action, Loc, Row.
	EvMitigation
	// EvRefresh is one per-rank auto-refresh (REF) command: At, Rank.
	// Successive events for one rank advance its refresh slot, from
	// which per-row refresh boundaries follow (tREFW/tREFI slots cycle
	// over the row space).
	EvRefresh
	// EvBulk is one rank-wide structure-reset sweep: At, Rank. ABACUS's
	// channel reset arrives as one event per rank.
	EvBulk
	// EvQueue reports the queue population after a change: At, Demand,
	// InjectedQueue. Timestamps may run slightly backwards — injected
	// counter traffic is enqueued at its future apply time — so
	// consumers clamp monotonically.
	EvQueue
	// EvTable is a TableReporter snapshot taken right after each
	// periodic tracker tick: At, Table.
	EvTable
	// EvServe is one request leaving the queue for service: Bank, Core,
	// Injected, IsWrite, Enqueued, At (service start), Until (data
	// transfer end), Extra, Conflict, ThrottleFree, MinEnqueued.
	EvServe
	// EvBlock keeps flat bank Bank busy over [At, Until) for Cause,
	// charged to Core.
	EvBlock
)

// BlockCause says why an EvBlock interval keeps its bank busy.
type BlockCause uint8

const (
	BlockMitigation BlockCause = iota // a VRR, RFMsb or DRFMsb command
	BlockREF                          // a per-rank auto-refresh
	BlockBulk                         // a rank-wide structure-reset sweep
)

// Event is one controller event: a flat value whose Kind says which
// fields are set.
type Event struct {
	Kind EventKind
	// Injected marks tracker counter traffic, which trackers never see
	// via OnActivate; IsWrite a write serve; Conflict a serve that found
	// another row open.
	Injected, IsWrite, Conflict bool
	// Action is the mitigation command: RefreshVictims,
	// RefreshVictimsRFMsb or RefreshVictimsDRFMsb.
	Action ActionKind
	Cause  BlockCause
	// Row is the aggressor whose victims a mitigation refreshes.
	Row uint32
	// At is the command's issue cycle, the sample cycle, a serve's start
	// or a block's first cycle; Until ends a serve's data transfer or a
	// block, exclusive.
	At, Until dram.Cycle
	// Loc is the activated row or the mitigated bank.
	Loc dram.Loc
	// Rank is the refreshed or swept rank; Bank the flat bank index
	// within the channel.
	Rank, Bank int
	// Core is the requesting core (-1 for a write-back), or the core
	// whose activation triggered a block (-1 for none: REF, periodic
	// tracker ticks).
	Core int
	// Demand and InjectedQueue are the core-request and counter-traffic
	// queue lengths.
	Demand, InjectedQueue int
	Table                 TableOccupancy
	// Enqueued is when a served request entered the queue: it waited
	// [Enqueued, At) and was served over [At, Until). Extra is the
	// service latency above the open-row hit floor (0 for a hit, tRCD
	// for a closed bank, tRP+tRCD for a conflict), so the serve
	// activated a row iff Extra > 0. ThrottleFree is the first cycle the
	// tracker's throttle would have admitted its activation, 0 when not
	// throttle-gated — the gate BlockHammer's delays are charged
	// against. MinEnqueued is the earliest enqueue cycle still waiting in
	// the channel, the serve excluded, or At when none is.
	Enqueued, Extra, ThrottleFree, MinEnqueued dram.Cycle
}

// Tee fans one channel's event stream out to several sinks, called in
// argument order. Nil members are dropped; Tee returns nil when none
// remain and the sole member itself when only one does, so callers can
// compose optional sinks unconditionally.
func Tee(sinks ...Sink) Sink {
	live := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return tee(live)
}

type tee []Sink

// Event fans out on the per-ACT path of every audited or
// telemetry-carrying run; TestTeeEventDoesNotAllocate holds it
// allocation-free.
func (t tee) Event(e Event) {
	for _, s := range t {
		s.Event(e)
	}
}
