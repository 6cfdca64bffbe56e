// Package mem implements the per-channel memory controller: request
// queues with FR-FCFS scheduling, open-page policy, DDR5 bank/rank
// timing, auto-refresh, and the RowHammer-tracker integration points
// (activation hooks, mitigation blocking, injected counter traffic, and
// throttling). One Controller instance models one channel of the
// Table I system.
package mem

import (
	"dapper/internal/dram"
	"dapper/internal/rh"
)

// Request is one 64B memory transaction. Cores (and trackers, for
// counter traffic) allocate requests and hand them to Enqueue; the
// controller sets Done and DoneAt on completion. Requests are reusable
// after completion. Loc must be set before Enqueue and must not change
// while the request is queued: Enqueue caches its bank index.
type Request struct {
	Addr       uint64
	Loc        dram.Loc
	IsWrite    bool
	Core       int
	Injected   bool // tracker-generated counter traffic
	EnqueuedAt dram.Cycle
	DoneAt     dram.Cycle
	Done       bool
	bank       int32 // flat bank index of Loc, cached by Enqueue (fits in Done's padding)
	// ThrottleFreeAt, set at enqueue when a sink is attached and the
	// tracker throttles, is the first cycle the throttle would have
	// admitted this request's activation; serve events carry it so the
	// blame layer can charge queue gaps before it to throttling.
	ThrottleFreeAt dram.Cycle
}

// Stats aggregates controller-side performance counters. ReadsServed,
// WritesServed and TotalReadWait cover demand traffic only; injected
// tracker counter traffic is tallied in dram.Counters.InjRD/InjWR.
type Stats struct {
	ReadsServed   uint64
	WritesServed  uint64
	RowHits       uint64
	RowMisses     uint64 // includes closed-bank activations
	TotalReadWait dram.Cycle
	Refreshes     uint64
}

// Controller schedules one channel. Not safe for concurrent use.
type Controller struct {
	channel int
	geo     dram.Geometry
	tim     dram.Timing
	tracker rh.Tracker
	throt   rh.Throttler // non-nil if tracker throttles
	mode    rh.MitigationMode
	sink    rh.Sink          // optional event tap (nil = none)
	tblRep  rh.TableReporter // tracker's table view, polled only with a sink

	// Latencies derived from tim once, so the per-request scheduling
	// scan reads fields instead of copying tim into its methods.
	hitLat, closedLat, missLat dram.Cycle
	actSpacing                 dram.Cycle // same-bank ACT-to-ACT: tRC plus the PRAC tax

	banks []dram.Bank
	ranks []dram.Rank

	queue    []*Request // core requests, bounded
	injected []*Request // tracker counter traffic, unbounded, priority
	queueCap int

	dataBusFreeAt   dram.Cycle
	nextTrackerTick dram.Cycle
	nextConsider    dram.Cycle // idle-scan backoff
	lastTick        dram.Cycle // previous Tick time, for backoff catch-up

	counters dram.Counters
	stats    Stats
	actBuf   []rh.Action
	reqPool  []*Request // recycled injected requests (tracker counter traffic)

	version uint64 // bumped on Enqueue; lets callers cache NextEvent
}

// QueueCap is the per-channel read/write queue capacity; a full queue
// back-pressures the cores, which is how bandwidth loss becomes
// slowdown.
const QueueCap = 48

// NewController builds a controller for the given channel. mode selects
// the mitigation command used for RefreshVictims actions (VRR1 default).
func NewController(channel int, geo dram.Geometry, tim dram.Timing, tracker rh.Tracker, mode rh.MitigationMode) *Controller {
	c := &Controller{
		channel:         channel,
		geo:             geo,
		tim:             tim,
		hitLat:          tim.RowHitLatency(),
		closedLat:       tim.RowClosedLatency(),
		missLat:         tim.RowMissLatency(),
		actSpacing:      tim.TRC + tim.PRACActTax,
		tracker:         tracker,
		mode:            mode,
		banks:           make([]dram.Bank, geo.BanksPerChannel()),
		ranks:           make([]dram.Rank, geo.Ranks),
		queueCap:        QueueCap,
		nextTrackerTick: tim.TREFI,
		lastTick:        -1,
	}
	for i := range c.banks {
		c.banks[i] = dram.NewBank()
	}
	for i := range c.ranks {
		// Stagger rank refreshes evenly across one tREFI, as real
		// controllers do, so no two ranks are ever blocked at once
		// (offsetting rank i by i*tREFI/2 would collide rank 2 with
		// rank 0's second refresh on >2-rank geometries).
		c.ranks[i] = dram.NewRank(tim.TREFI + dram.Cycle(i)*tim.TREFI/dram.Cycle(geo.Ranks))
	}
	if th, ok := tracker.(rh.Throttler); ok {
		c.throt = th
	}
	return c
}

// SetSink attaches the passive event sink (nil detaches): it sees every
// ACT, mitigation command, auto-refresh, bulk sweep, queue change,
// tracker-table snapshot, serve and bank block this controller issues,
// and cannot influence scheduling. Attach before the first Tick so the
// stream is complete.
func (c *Controller) SetSink(s rh.Sink) {
	c.sink = s
	c.tblRep = nil
	if s != nil {
		c.tblRep, _ = c.tracker.(rh.TableReporter)
	}
}

// emit hands e to the sink. It inlines, and the compiler builds e only
// past the nil check, so a detached sink costs one branch per event,
// which the bench gate holds under 2%. Event fields that take more than
// loads to compute (the serve watermark, table snapshots) are guarded
// at their call sites. TestHotPathsDoNotAllocate holds it
// allocation-free with a sink attached.
func (c *Controller) emit(e rh.Event) {
	if c.sink != nil {
		c.sink.Event(e)
	}
}

// Counters returns the DRAM event counters.
func (c *Controller) Counters() dram.Counters { return c.counters }

// Stats returns controller performance counters.
func (c *Controller) Stats() Stats { return c.stats }

// CanEnqueue reports whether the core queue has room.
func (c *Controller) CanEnqueue() bool { return len(c.queue) < c.queueCap }

// Enqueue admits a request; it returns false when the queue is full
// (the caller must retry later, and the request is left untouched).
// Injected requests are never refused.
func (c *Controller) Enqueue(r *Request, now dram.Cycle) bool {
	if r.Injected {
		r.Done = false
		r.EnqueuedAt = now
		r.bank = int32(c.geo.FlatBank(r.Loc))
		c.injected = append(c.injected, r)
		c.resetConsider(now + 1)
		c.version++
		c.emit(rh.Event{Kind: rh.EvQueue, At: now, Demand: len(c.queue), InjectedQueue: len(c.injected)})
		return true
	}
	if len(c.queue) >= c.queueCap {
		return false
	}
	r.Done = false
	r.EnqueuedAt = now
	r.bank = int32(c.geo.FlatBank(r.Loc))
	r.ThrottleFreeAt = 0
	if c.sink != nil && c.throt != nil {
		r.ThrottleFreeAt = c.throt.NextAllowed(now, r.Loc)
	}
	c.queue = append(c.queue, r)
	c.resetConsider(now + 1)
	c.version++
	c.emit(rh.Event{Kind: rh.EvQueue, At: now, Demand: len(c.queue), InjectedQueue: len(c.injected)})
	return true
}

// resetConsider re-arms the scheduler: the next attempt is allowed at
// cycle `at`. Every reset must encode its own time — a bare zero would
// lose the anchor of the 2-cycle backoff grid, and Tick's catch-up
// would replay the skipped-attempt trajectory with the wrong parity.
func (c *Controller) resetConsider(at dram.Cycle) {
	c.nextConsider = at
}

// Version increments on every successful Enqueue. The event engine uses
// it to cache NextEvent between ticks: a controller's wake time can only
// move earlier when new work arrives.
func (c *Controller) Version() uint64 { return c.version }

// Tick advances the controller to cycle now: runs refresh, the tracker's
// periodic work, and attempts to start one request.
//
// Tick may be driven either every cycle (the reference engine) or only
// at wake times reported by NextEvent (the event engine). In the latter
// case the skipped cycles are provably idle, and the catch-up below
// replays the backoff trajectory a per-cycle driver would have taken, so
// both driving styles observe bit-identical controller behavior.
func (c *Controller) Tick(now dram.Cycle) {
	// Catch up the stalled-scheduler backoff over skipped cycles: a
	// per-cycle driver would have attempted at a, a+2, ... (a = first
	// permitted attempt after the previous Tick) and failed each time —
	// the event engine only skips provably idle cycles — leaving
	// nextConsider at the first grid point at or beyond now.
	if a := max(c.nextConsider, c.lastTick+1); a < now {
		c.nextConsider = a + (now-a+1)/2*2
	}
	c.lastTick = now
	c.refreshTick(now)
	if now < c.nextConsider {
		return
	}
	if !c.trySchedule(now) {
		c.nextConsider = now + 2 // back off half a nanosecond when stalled
	}
}

// refreshTick issues per-rank auto-refresh on the tREFI cadence and runs
// the tracker's periodic hook. Both fire at their exact deadline cycle:
// the per-cycle driver lands on every deadline by construction, and the
// event engine never schedules a wake past one, but the loops below
// catch up on the deadline's own terms should a driver ever arrive late.
func (c *Controller) refreshTick(now dram.Cycle) {
	for r := range c.ranks {
		rk := &c.ranks[r]
		for now >= rk.NextRefAt {
			at := rk.NextRefAt
			until := at + c.tim.TRFC
			rk.Block(until)
			base := r * c.geo.BanksPerRank()
			for b := 0; b < c.geo.BanksPerRank(); b++ {
				c.banks[base+b].Block(until)
				c.emit(rh.Event{Kind: rh.EvBlock, At: at, Until: until, Bank: base + b, Cause: rh.BlockREF, Core: -1})
			}
			rk.NextRefAt += c.tim.TREFI
			c.counters.REF++
			c.stats.Refreshes++
			c.emit(rh.Event{Kind: rh.EvRefresh, At: at, Rank: r})
			c.resetConsider(now) // attempt again this very tick
		}
	}
	for now >= c.nextTrackerTick {
		at := c.nextTrackerTick
		c.actBuf = c.tracker.Tick(at, c.actBuf[:0])
		c.applyActions(at, c.actBuf, -1)
		c.nextTrackerTick += c.tim.TREFI
		if c.tblRep != nil {
			c.emit(rh.Event{Kind: rh.EvTable, At: at, Table: c.tblRep.TableOccupancy()})
		}
	}
}

// NextEvent returns the next cycle strictly after now at which this
// controller can change visible state: the earliest rank refresh
// deadline, the tracker's periodic tick, or — when requests are pending
// — the first scheduling attempt that could start one. Between now and
// the returned cycle, Tick is a no-op on all observable state. Valid
// immediately after Tick(now).
func (c *Controller) NextEvent(now dram.Cycle) dram.Cycle {
	next := c.nextTrackerTick
	for r := range c.ranks {
		if c.ranks[r].NextRefAt < next {
			next = c.ranks[r].NextRefAt
		}
	}
	if len(c.queue)+len(c.injected) > 0 {
		if t := c.nextAttempt(now); t < next {
			next = t
		}
	}
	if next <= now {
		next = now + 1
	}
	return next
}

// nextAttempt returns the first cycle after now at which trySchedule
// could make progress. Failed attempts back off two cycles, so attempts
// happen on a 2-cycle grid anchored at the next permitted attempt; the
// result is the first grid point at which some request passes every
// scheduling constraint (assuming no state changes before then — any
// state change is itself an event that re-triggers this computation).
func (c *Controller) nextAttempt(now dram.Cycle) dram.Cycle {
	ready := c.earliestReady(c.injected, now)
	if t := c.earliestReady(c.queue, now); t < ready {
		ready = t
	}
	anchor := max(c.nextConsider, now+1)
	if ready <= anchor {
		return anchor
	}
	return anchor + (ready-anchor+1)/2*2
}

// earliestReady returns the earliest cycle after now at which pick could
// start some request in q, given frozen controller state. The bound
// mirrors pick's constraints exactly: bank/rank availability, tRC and
// tRRD spacing (plus the PRAC tax), throttling, and data-bus occupancy.
//
// The scan stops at a floor no request can beat: every candidate is at
// least now+1 and at least dataBusFreeAt minus its own latency, and
// missLat is the longest latency because Timing.Validate rejects
// non-positive TRP, TRCD and TCL (so hitLat < closedLat < missLat).
// Skipped requests would only consult NextAllowed, a pure query.
// TestHotPathsDoNotAllocate holds it allocation-free.
func (c *Controller) earliestReady(q []*Request, now dram.Cycle) dram.Cycle {
	floor := max(now+1, c.dataBusFreeAt-c.missLat)
	best := dram.Never
	for _, r := range q {
		bank := &c.banks[r.bank]
		rank := &c.ranks[r.Loc.Rank]
		t := now + 1
		t = max(t, bank.ReadyAt)
		t = max(t, bank.BlockedUntil)
		t = max(t, rank.BlockedUntil)
		lat := c.hitLat
		if bank.OpenRow != r.Loc.Row {
			var actDelay dram.Cycle
			lat = c.closedLat
			if bank.OpenRow != dram.RowNone {
				actDelay = c.tim.TRP
				lat = c.missLat
			}
			t = max(t, bank.LastActAt+c.actSpacing-actDelay)
			t = max(t, rank.LastActAt+c.tim.TRRDS-actDelay)
			if c.throt != nil && !r.Injected {
				t = max(t, c.throt.NextAllowed(t, r.Loc))
			}
		}
		t = max(t, c.dataBusFreeAt-lat)
		if t < best {
			best = t
			if best <= floor {
				break
			}
		}
	}
	return best
}

// trySchedule starts at most one request. Returns true if progress was
// made (so the idle backoff only engages when truly stalled).
func (c *Controller) trySchedule(now dram.Cycle) bool {
	if r := c.pick(c.injected, now); r != nil {
		c.service(r, now)
		c.removeInjected(r)
		c.emit(rh.Event{Kind: rh.EvQueue, At: now, Demand: len(c.queue), InjectedQueue: len(c.injected)})
		return true
	}
	if r := c.pick(c.queue, now); r != nil {
		c.service(r, now)
		c.removeQueued(r)
		c.emit(rh.Event{Kind: rh.EvQueue, At: now, Demand: len(c.queue), InjectedQueue: len(c.injected)})
		return true
	}
	return false
}

// pick implements FR-FCFS over a queue: the oldest row-buffer hit that
// can start now, else the oldest request that can start now.
//
// When the data bus cannot take a hit's burst, no row hit can start now,
// because hitLat is the shortest latency (Timing.Validate rejects
// non-positive TRP, TRCD and TCL). FR-FCFS then reduces to the oldest
// startable request, which is the first startable non-hit in queue
// order, so the scan returns it as soon as it is found. Once the oldest
// startable non-hit is known, later non-hits cannot win and are not
// checked; skipping their NextAllowed queries is safe because the
// rh.Throttler contract makes them pure. TestHotPathsDoNotAllocate
// holds it allocation-free.
func (c *Controller) pick(q []*Request, now dram.Cycle) *Request {
	hitsBlocked := !c.dataBusOK(now, c.hitLat)
	var oldest *Request
	for _, r := range q {
		bank := &c.banks[r.bank]
		if bank.AvailableAt(now) > now {
			continue
		}
		rank := &c.ranks[r.Loc.Rank]
		if rank.BlockedUntil > now {
			continue
		}
		if bank.OpenRow == r.Loc.Row {
			// First-ready: serve the oldest hit immediately.
			if !hitsBlocked {
				return r
			}
			continue
		}
		if oldest != nil {
			continue
		}
		// Needs an ACT: respect tRC, tRRD, throttling and the data bus.
		actAt, lat := now, c.closedLat
		if bank.OpenRow != dram.RowNone {
			actAt, lat = now+c.tim.TRP, c.missLat
		}
		if bank.LastActAt+c.actSpacing > actAt || rank.LastActAt+c.tim.TRRDS > actAt {
			continue
		}
		if c.throt != nil && !r.Injected && c.throt.NextAllowed(now, r.Loc) > now {
			continue
		}
		if !c.dataBusOK(now, lat) {
			continue
		}
		if hitsBlocked {
			return r
		}
		oldest = r
	}
	return oldest
}

// dataBusOK checks the channel data bus is free when this request's
// burst would begin.
func (c *Controller) dataBusOK(now dram.Cycle, latency dram.Cycle) bool {
	return c.dataBusFreeAt <= now+latency
}

// service starts request r at cycle now, updating all timing state and
// firing the tracker hook if an ACT was issued.
func (c *Controller) service(r *Request, now dram.Cycle) {
	fb := int(r.bank)
	bank := &c.banks[fb]
	rank := &c.ranks[r.Loc.Rank]

	var latency dram.Cycle
	activated := false
	conflict := false
	switch {
	case bank.OpenRow == r.Loc.Row:
		latency = c.hitLat
		c.stats.RowHits++
	case bank.OpenRow == dram.RowNone:
		latency = c.closedLat
		bank.LastActAt = now
		rank.LastActAt = now
		activated = true
		c.stats.RowMisses++
	default:
		latency = c.missLat
		actAt := now + c.tim.TRP
		bank.LastActAt = actAt
		rank.LastActAt = actAt
		activated = true
		conflict = true
		c.stats.RowMisses++
	}
	bank.OpenRow = r.Loc.Row

	dataStart := now + latency
	dataEnd := dataStart + c.tim.TBurst
	c.dataBusFreeAt = dataEnd
	// The bank accepts its next column command one burst slot (tCCD)
	// after this one; the shared data bus is what actually spaces
	// back-to-back transfers.
	bank.ReadyAt = dataStart - c.tim.TCL + c.tim.TBurst
	if bank.ReadyAt < now {
		bank.ReadyAt = now
	}
	if r.IsWrite {
		// Write recovery delays the next row change; approximate by
		// extending bank busy slightly.
		bank.ReadyAt = dataEnd + c.tim.TWR/4
	}

	r.Done = true
	r.DoneAt = dataEnd
	// Injected counter traffic is accounted only in InjRD/InjWR: folding
	// it into the demand-side counters would skew the average read
	// latency and bandwidth the figures normalize against (and
	// double-count its energy, which the energy model prices via
	// InjRD/InjWR separately).
	switch {
	case r.Injected && r.IsWrite:
		c.counters.InjWR++
	case r.Injected:
		c.counters.InjRD++
	case r.IsWrite:
		c.counters.WR++
		c.stats.WritesServed++
	default:
		c.counters.RD++
		c.stats.ReadsServed++
		c.stats.TotalReadWait += dataEnd - r.EnqueuedAt
	}

	if c.sink != nil {
		c.emitServe(r, fb, now, dataEnd, latency-c.hitLat, activated, conflict)
	}

	if activated {
		c.counters.ACT++
		c.emit(rh.Event{Kind: rh.EvACT, At: bank.LastActAt, Loc: r.Loc, Injected: r.Injected})
		if !r.Injected {
			c.actBuf = c.tracker.OnActivate(bank.LastActAt, r.Loc, c.actBuf[:0])
			c.applyActions(bank.LastActAt, c.actBuf, r.Core)
		}
	}
}

// emitServe reports one serve (c.sink non-nil). r is still in its
// queue here, so the watermark skips it by identity; with both queues
// otherwise empty the watermark is `now` — never a future cycle, since
// future-dated block segments must survive until every waiter that
// could overlap them has been served. The demand queue stays in
// EnqueuedAt order (Enqueue appends at the non-decreasing current
// cycle; removal keeps order), so its oldest other waiter is at index 0
// or 1; only the injected queue, enqueued at future apply times, needs
// a scan.
func (c *Controller) emitServe(r *Request, fb int, now, dataEnd, extra dram.Cycle, activated, conflict bool) {
	minEnq := now
	first := true
	for _, q := range c.queue[:min(2, len(c.queue))] {
		if q != r {
			minEnq, first = q.EnqueuedAt, false
			break
		}
	}
	for _, q := range c.injected {
		if q != r && (first || q.EnqueuedAt < minEnq) {
			minEnq, first = q.EnqueuedAt, false
		}
	}
	var tf dram.Cycle
	if activated && !r.Injected {
		tf = r.ThrottleFreeAt
	}
	c.sink.Event(rh.Event{
		Kind:         rh.EvServe,
		Bank:         fb,
		Core:         r.Core,
		Injected:     r.Injected,
		IsWrite:      r.IsWrite,
		Enqueued:     r.EnqueuedAt,
		At:           now,
		Until:        dataEnd,
		Extra:        extra,
		Conflict:     conflict,
		ThrottleFree: tf,
		MinEnqueued:  minEnq,
	})
}

// applyActions executes tracker actions: mitigation blocking and
// injected counter traffic. culprit is the core whose activation
// triggered the actions (-1 for periodic tracker ticks); block events
// name it as their culprit.
func (c *Controller) applyActions(now dram.Cycle, acts []rh.Action, culprit int) {
	for i := range acts {
		a := &acts[i]
		switch a.Kind {
		case rh.RefreshVictims:
			dur := c.tim.TVRR1
			if c.mode == rh.VRR2 {
				dur = c.tim.TVRR2
			}
			c.blockBank(a.Loc, dur, now, culprit)
			c.counters.VRR++
			c.emit(rh.Event{Kind: rh.EvMitigation, At: now, Action: a.Kind, Loc: a.Loc, Row: a.Row})
		case rh.RefreshVictimsRFMsb:
			c.blockSameBank(a.Loc, c.tim.TRFMsb, now, culprit)
			c.counters.RFMsb++
			c.emit(rh.Event{Kind: rh.EvMitigation, At: now, Action: a.Kind, Loc: a.Loc, Row: a.Row})
		case rh.RefreshVictimsDRFMsb:
			c.blockSameBank(a.Loc, c.tim.TDRFMsb, now, culprit)
			c.counters.DRFMsb++
			c.emit(rh.Event{Kind: rh.EvMitigation, At: now, Action: a.Kind, Loc: a.Loc, Row: a.Row})
		case rh.BulkRefreshRank:
			c.bulkRefreshRank(now, a.Loc.Rank, culprit)
		case rh.BulkRefreshChannel:
			for rk := 0; rk < c.geo.Ranks; rk++ {
				c.bulkRefreshRank(now, rk, culprit)
			}
		case rh.InjectRead, rh.InjectWrite:
			var req *Request
			if n := len(c.reqPool); n > 0 {
				req = c.reqPool[n-1]
				c.reqPool = c.reqPool[:n-1]
			} else {
				req = new(Request)
			}
			*req = Request{
				Loc:      a.Loc,
				IsWrite:  a.Kind == rh.InjectWrite,
				Injected: true,
			}
			req.Addr = c.geo.Compose(a.Loc)
			c.Enqueue(req, now)
			// Within-tick arrival: the gate below this applyActions call
			// may still attempt at `now` itself, as the per-cycle driver
			// would with a zeroed backoff.
			c.resetConsider(now)
		}
	}
}

// blockBank blocks the single bank of loc for dur, starting when the
// bank next comes free (mitigations queue behind in-flight work). now is
// the cycle the triggering mitigation is applied at; culprit is the core
// whose activation triggered it.
func (c *Controller) blockBank(loc dram.Loc, dur, now dram.Cycle, culprit int) {
	fb := c.geo.FlatBank(loc)
	bank := &c.banks[fb]
	start := bank.ReadyAt
	if bank.BlockedUntil > start {
		start = bank.BlockedUntil
	}
	bank.Block(start + dur)
	c.emit(rh.Event{Kind: rh.EvBlock, At: start, Until: start + dur, Bank: fb, Cause: rh.BlockMitigation, Core: culprit})
	c.resetConsider(now)
}

// blockSameBank blocks the same bank index across every bank group of
// loc's rank (RFMsb/DRFMsb semantics, §VI-G).
func (c *Controller) blockSameBank(loc dram.Loc, dur, now dram.Cycle, culprit int) {
	for bg := 0; bg < c.geo.BankGroups; bg++ {
		l := loc
		l.BankGroup = bg
		c.blockBank(l, dur, now, culprit)
	}
}

// bulkRefreshRank blocks the whole rank for a full row sweep: the
// structure-reset penalty of CoMeT/ABACUS (~2.4ms for 64K-row banks).
func (c *Controller) bulkRefreshRank(now dram.Cycle, rankID int, culprit int) {
	dur := c.tim.BulkSweep(c.geo.RowsPerBank)
	until := now + dur
	rk := &c.ranks[rankID]
	rk.Block(until)
	base := rankID * c.geo.BanksPerRank()
	for b := 0; b < c.geo.BanksPerRank(); b++ {
		c.banks[base+b].Block(until)
		c.emit(rh.Event{Kind: rh.EvBlock, At: now, Until: until, Bank: base + b, Cause: rh.BlockBulk, Core: culprit})
	}
	c.counters.BulkEvents++
	c.counters.BulkRows += uint64(c.geo.BanksPerRank()) * uint64(c.geo.RowsPerBank)
	c.emit(rh.Event{Kind: rh.EvBulk, At: now, Rank: rankID})
	c.resetConsider(now)
}

func (c *Controller) removeQueued(r *Request) {
	for i, q := range c.queue {
		if q == r {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return
		}
	}
}

func (c *Controller) removeInjected(r *Request) {
	for i, q := range c.injected {
		if q == r {
			c.injected = append(c.injected[:i], c.injected[i+1:]...)
			// Injected requests are controller-owned (service and the
			// sink consumed the values above), so recycle them;
			// tracker counter traffic otherwise allocates one Request per
			// RCC/counter-cache miss for the whole run.
			if len(c.reqPool) < 128 {
				c.reqPool = append(c.reqPool, r)
			}
			return
		}
	}
}

// BankOpenRow exposes a bank's open row for tests.
func (c *Controller) BankOpenRow(flatBank int) uint32 { return c.banks[flatBank].OpenRow }

// BankBlockedUntil exposes a bank's blocked deadline for tests.
func (c *Controller) BankBlockedUntil(flatBank int) dram.Cycle {
	return c.banks[flatBank].BlockedUntil
}
