// Batched multi-config execution: advance many tracker configurations
// in lockstep behind one system simulation of a shared stream, and
// report which points could not ride it so the caller runs those
// independently.
//
// The batching rests on the tracker contract's narrow influence
// surface. A tracker can change system evolution only through (a) the
// actions it returns from OnActivate/Tick, (b) rh.Throttler's
// NextAllowed, (c) rh.TimingTaxer's ActTax, and (d) rh.LLCReserver's
// LLCReservedFraction. For two configurations with equal (c) and (d),
// neither throttling, the whole system trajectory is a function of the
// action stream alone: if a follower configuration emits exactly the
// actions the lead emitted at every tracker invocation, every
// controller, core and cache state transition is identical by
// induction, and its Result equals the lead's except for the
// tracker-owned fields (Stats, TrackerNames).
//
// A Batch exploits this with shadow trackers. The lead point runs at
// full fidelity; each of its per-channel trackers is wrapped so every
// OnActivate/Tick input, with the actions the lead returned for it,
// and every Stats() snapshot is appended to a bounded chunk of compact
// events. Each full chunk is handed over, and every live follower
// replays it into its own tracker instances, comparing its actions
// element-wise and taking its own Stats() where the lead took its
// snapshots. The first mismatch is a divergence: the follower's
// feedback would have changed the stream, so it is dropped and the
// caller reruns it. Nothing is kept for the whole run, so memory is a
// chunk or two however long the run is.
//
// The lead and the replay share nothing but the chunks, so a caller
// may replay on another goroutine while the lead fills the next chunk
// (the harness does); each half is single-threaded, and the replay
// sees the chunks in order, so no follower Result depends on timing.
// RunBatch is the inline composition.
//
// The shadow is a tracker wrapper, not an rh.Sink consumer, because it
// needs what the sink does not carry: the inputs of every tracker call
// (Tick included) and the exact action list the lead's tracker
// returned at that call site, before the controller schedules it. The
// sink sees issued commands, after queueing and timing have reordered
// and delayed them, so it cannot say what one invocation returned.
//
// Throttlers never follow: NextAllowed is consulted on the scheduling
// hot path, where "would this point have delayed the request" cannot
// be answered from the lead's stream.
package sim

import (
	"fmt"
	"slices"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

// BatchPoint is one sweep point in a Batch: a tracker configuration
// plus its mitigation mode. The base Config's Tracker/Mode are ignored.
type BatchPoint struct {
	Tracker TrackerFactory
	Mode    rh.MitigationMode
}

// FallbackReason says why a point did not ride the lead's stream.
type FallbackReason string

const (
	// FallbackLead: the point was the lead, running the stream itself.
	FallbackLead FallbackReason = "lead"
	// FallbackThrottler: the tracker throttles (rh.Throttler), so its
	// scheduling influence cannot be checked against the lead's stream.
	FallbackThrottler FallbackReason = "throttler"
	// FallbackMode: the point's mitigation mode differs from the lead's
	// (mode changes mitigation timings, hence the stream).
	FallbackMode FallbackReason = "mode-mismatch"
	// FallbackActTax: the point's PRAC ACT tax differs from the lead's.
	FallbackActTax FallbackReason = "act-tax-mismatch"
	// FallbackLLCReserve: the point reserves a different LLC fraction.
	FallbackLLCReserve FallbackReason = "llc-reserve-mismatch"
	// FallbackDiverged: the shadow found an action mismatch.
	FallbackDiverged FallbackReason = "diverged"
)

// BatchOutcome reports how one point fared. Lead and lockstep results
// are byte-identical to an independent Run of the same configuration
// (the equivalence tests enforce this); every other point has no
// Result and must be run independently.
type BatchOutcome struct {
	Lockstep bool
	Reason   FallbackReason // empty for a lockstep point
}

// Served reports whether the batch produced the point's Result.
func (o BatchOutcome) Served() bool { return o.Lockstep || o.Reason == FallbackLead }

// chunkEvents is a chunk's capacity. Smaller chunks cost more hand-offs
// per run; larger ones cost memory and catch a divergence later.
const chunkEvents = 4096

// Shadow event kinds: a tracker call, or the engine's Stats() snapshot.
const (
	evAct uint8 = iota
	evTick
	evSnap
)

// shadowEvent is one lead tracker call, packed: a Loc narrowed to the
// field widths batchable geometries fit (see fitsShadow).
type shadowEvent struct {
	now  dram.Cycle
	row  uint32
	nAct uint32 // actions the lead returned, stored flat in Chunk.acts
	col  uint16
	ch   uint8 // the wrapper's channel: which follower tracker replays it
	// locCh, rank, bg and bank are the rest of the activated Loc.
	locCh, rank, bg, bank uint8
	kind                  uint8
}

func (e *shadowEvent) loc() dram.Loc {
	return dram.Loc{Channel: int(e.locCh), Rank: int(e.rank), BankGroup: int(e.bg),
		Bank: int(e.bank), Row: e.row, Col: int(e.col)}
}

// fitsShadow reports whether every Loc of g packs into a shadowEvent.
func fitsShadow(g dram.Geometry) bool {
	return g.Channels <= 256 && g.Ranks <= 256 && g.BankGroups <= 256 &&
		g.BanksPerGroup <= 256 && g.BlocksPerRow() <= 1<<16
}

// Chunk is a bounded run of the lead's shadow events on its way to the
// followers. A caller that runs many batches keeps its chunks and
// reuses them.
type Chunk struct {
	events []shadowEvent
	acts   []rh.Action
}

// NewChunk returns an empty chunk.
func NewChunk() *Chunk { return &Chunk{events: make([]shadowEvent, 0, chunkEvents)} }

// follower is one eligible point shadowing the lead.
type follower struct {
	point     int
	trackers  []rh.Tracker // per channel
	warm, fin rh.Stats     // summed Stats() at the two snapshots
	snaps     int          // snapshot events replayed
}

// pointTraits are the stream-shaping properties of a configuration,
// probed from its channel-0 instance.
type pointTraits struct {
	throttler bool
	tax       dram.Cycle
	reserve   float64
}

func probeTraits(t rh.Tracker) pointTraits {
	var tr pointTraits
	_, tr.throttler = t.(rh.Throttler)
	if x, ok := t.(rh.TimingTaxer); ok {
		tr.tax = x.ActTax()
	}
	if x, ok := t.(rh.LLCReserver); ok {
		tr.reserve = x.LLCReservedFraction()
	}
	return tr
}

// Batch is one lockstep group: the first non-throttling point leads,
// and every compatible point shadows it. Lead and Replay are its two
// halves (see the package comment); Results reads both once Lead has
// returned and every chunk it handed over has been replayed.
type Batch struct {
	base     Config
	pts      []BatchPoint
	lead     int        // -1 when every point throttles
	leadT0   rh.Tracker // the lead's probed channel-0 tracker
	outcomes []BatchOutcome
	live     []*follower
	out      []*follower // diverged, in drop order
	buf      []rh.Action
	leadRes  Result
}

// NewBatch probes the points and sets up the followers. base's Tracker
// and Mode are ignored. A base Sink, TelemetryWindow or Attribution is
// an error: a follower has no controller stream to tap and no windowed
// state of its own, so runs that carry them run alone.
func NewBatch(base Config, points []BatchPoint) (*Batch, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("sim: a batch needs at least one point")
	}
	if base.Sink != nil || base.TelemetryWindow != 0 || base.Attribution {
		return nil, fmt.Errorf("sim: a batch takes no Sink, telemetry or attribution (followers have no controller stream); run such points with Run")
	}
	base = base.withDefaults()
	if !fitsShadow(base.Geometry) {
		return nil, fmt.Errorf("sim: geometry %+v is too large for shadow events; run the points with Run", base.Geometry)
	}
	b := &Batch{base: base, pts: slices.Clone(points), lead: -1, outcomes: make([]BatchOutcome, len(points))}

	// Each point's probed channel-0 instance is still fresh (the traits
	// are pure getters), so the point that runs reuses it as its channel
	// 0 tracker instead of building another.
	probes := make([]rh.Tracker, len(b.pts))
	traits := make([]pointTraits, len(b.pts))
	for i := range b.pts {
		if b.pts[i].Tracker == nil {
			b.pts[i].Tracker = NopFactory
		}
		probes[i] = b.pts[i].Tracker(0)
		traits[i] = probeTraits(probes[i])
		if b.lead < 0 && !traits[i].throttler {
			b.lead = i
		}
	}
	if b.lead < 0 {
		// Every point throttles: there is no shared stream to ride.
		for i := range b.outcomes {
			b.outcomes[i] = BatchOutcome{Reason: FallbackThrottler}
		}
		return b, nil
	}
	lead := b.lead
	b.leadT0 = probes[lead]
	for i := range b.pts {
		switch {
		case i == lead:
			b.outcomes[i] = BatchOutcome{Reason: FallbackLead}
		case traits[i].throttler:
			b.outcomes[i] = BatchOutcome{Reason: FallbackThrottler}
		case b.pts[i].Mode != b.pts[lead].Mode:
			b.outcomes[i] = BatchOutcome{Reason: FallbackMode}
		case traits[i].tax != traits[lead].tax:
			b.outcomes[i] = BatchOutcome{Reason: FallbackActTax}
		case traits[i].reserve != traits[lead].reserve:
			b.outcomes[i] = BatchOutcome{Reason: FallbackLLCReserve}
		default:
			f := &follower{point: i, trackers: make([]rh.Tracker, base.Geometry.Channels)}
			f.trackers[0] = probes[i]
			for ch := 1; ch < len(f.trackers); ch++ {
				f.trackers[ch] = b.pts[i].Tracker(ch)
			}
			b.live = append(b.live, f)
		}
	}
	return b, nil
}

// Lead simulates the lead point, filling c with its shadow events.
// Each full chunk, and the last partial one, goes to hand, which
// returns an empty chunk to fill next; Lead never touches a chunk
// after handing it over. Without followers nothing is handed over.
func (b *Batch) Lead(c *Chunk, hand func(*Chunk) *Chunk) error {
	if b.lead < 0 {
		return nil
	}
	cfg := b.base
	cfg.Mode = b.pts[b.lead].Mode
	cfg.Tracker = func(ch int) rh.Tracker { // run builds each channel once
		if ch == 0 {
			return b.leadT0
		}
		return b.pts[b.lead].Tracker(ch)
	}
	sh := &shadow{cur: c, hand: hand}
	var wrap func(int, rh.Tracker) rh.Tracker
	if len(b.live) > 0 {
		wrap = func(ch int, t rh.Tracker) rh.Tracker { return &shadowTracker{inner: t, sh: sh, ch: uint8(ch)} }
	}
	res, err := run(cfg, wrap)
	if err != nil {
		return err
	}
	if len(sh.cur.events) > 0 {
		hand(sh.cur)
	}
	b.leadRes = res
	return nil
}

// Replay feeds c to every live follower, drops the ones that diverge,
// and empties c. Chunks must arrive in the order Lead handed them over.
func (b *Batch) Replay(c *Chunk) {
	live := b.live[:0]
	for _, f := range b.live {
		if b.replay(f, c) {
			live = append(live, f)
		} else {
			b.out = append(b.out, f)
		}
	}
	b.live = live
	c.events, c.acts = c.events[:0], c.acts[:0]
}

// replay feeds c to one follower, reporting whether it emitted exactly
// the lead's actions.
func (b *Batch) replay(f *follower, c *Chunk) bool {
	ai := 0
	for i := range c.events {
		ev := &c.events[i]
		t := f.trackers[ev.ch]
		switch ev.kind {
		case evAct:
			b.buf = t.OnActivate(ev.now, ev.loc(), b.buf[:0])
		case evTick:
			b.buf = t.Tick(ev.now, b.buf[:0])
		case evSnap:
			// The engine snapshots every channel at warmup, then again
			// at the end.
			dst := &f.fin
			if f.snaps < len(f.trackers) {
				dst = &f.warm
			}
			accumStats(dst, t.Stats())
			f.snaps++
			continue
		}
		want := c.acts[ai : ai+int(ev.nAct)]
		ai += int(ev.nAct)
		if !slices.Equal(b.buf, want) {
			return false
		}
	}
	return true
}

// Results returns one Result per point, positionally parallel to the
// points, and each point's outcome. A point has a Result only when its
// outcome is Served (the lead, or a follower that matched the lead's
// actions to the end), and that Result is byte-identical to what Run
// would produce for it; the caller runs every other point
// independently.
func (b *Batch) Results() ([]Result, []BatchOutcome, error) {
	results := make([]Result, len(b.pts))
	if b.lead < 0 {
		return results, b.outcomes, nil
	}
	lead := b.leadRes
	results[b.lead] = lead
	for _, f := range b.out {
		b.outcomes[f.point] = BatchOutcome{Reason: FallbackDiverged}
	}
	for _, f := range b.live {
		if f.snaps != 2*len(f.trackers) {
			return nil, nil, fmt.Errorf("sim: a follower saw %d tracker snapshots, want 2 per channel", f.snaps)
		}
		res := Result{
			IPC:          slices.Clone(lead.IPC),
			Instructions: slices.Clone(lead.Instructions),
			Cycles:       lead.Cycles,
			Counters:     lead.Counters,
			Mem:          lead.Mem,
			LLCHitRate:   lead.LLCHitRate,
			Tracker:      f.fin,
		}
		subStats(&res.Tracker, f.warm)
		for _, t := range f.trackers {
			res.TrackerNames = append(res.TrackerNames, t.Name())
		}
		results[f.point] = res
		b.outcomes[f.point] = BatchOutcome{Lockstep: true}
	}
	return results, b.outcomes, nil
}

// RunBatch runs a Batch inline: each chunk is replayed as soon as the
// lead fills it.
func RunBatch(base Config, points []BatchPoint) ([]Result, []BatchOutcome, error) {
	b, err := NewBatch(base, points)
	if err != nil {
		return nil, nil, err
	}
	if err := b.Lead(NewChunk(), func(c *Chunk) *Chunk { b.Replay(c); return c }); err != nil {
		return nil, nil, err
	}
	return b.Results()
}

// shadow is the lead side every channel's wrapper shares.
type shadow struct {
	cur  *Chunk
	hand func(*Chunk) *Chunk
}

func (s *shadow) record(ev shadowEvent, acts []rh.Action) {
	c := s.cur
	ev.nAct = uint32(len(acts))
	c.events = append(c.events, ev)
	c.acts = append(c.acts, acts...)
	if len(c.events) == cap(c.events) {
		s.cur = s.hand(c)
	}
}

// shadowTracker wraps one of the lead's per-channel trackers when there
// are followers: it forwards everything and records every input plus
// the emitted actions, and every Stats() snapshot. It
// always implements TimingTaxer and LLCReserver (forwarding the inner's
// value or the 0 default, indistinguishable from absence) and never
// Throttler (the lead is chosen non-throttling). A batch takes no sink,
// so the controller never polls TableReporter and the wrapper need not
// forward it.
type shadowTracker struct {
	inner rh.Tracker
	sh    *shadow
	ch    uint8
}

func (w *shadowTracker) Name() string { return w.inner.Name() }

func (w *shadowTracker) OnActivate(now dram.Cycle, loc dram.Loc, buf []rh.Action) []rh.Action {
	start := len(buf)
	out := w.inner.OnActivate(now, loc, buf)
	w.sh.record(shadowEvent{now: now, row: loc.Row, col: uint16(loc.Col), ch: w.ch,
		locCh: uint8(loc.Channel), rank: uint8(loc.Rank), bg: uint8(loc.BankGroup),
		bank: uint8(loc.Bank), kind: evAct}, out[start:])
	return out
}

func (w *shadowTracker) Tick(now dram.Cycle, buf []rh.Action) []rh.Action {
	start := len(buf)
	out := w.inner.Tick(now, buf)
	w.sh.record(shadowEvent{now: now, ch: w.ch, kind: evTick}, out[start:])
	return out
}

func (w *shadowTracker) Stats() rh.Stats {
	w.sh.record(shadowEvent{ch: w.ch, kind: evSnap}, nil)
	return w.inner.Stats()
}

func (w *shadowTracker) ActTax() dram.Cycle {
	if t, ok := w.inner.(rh.TimingTaxer); ok {
		return t.ActTax()
	}
	return 0
}

func (w *shadowTracker) LLCReservedFraction() float64 {
	if t, ok := w.inner.(rh.LLCReserver); ok {
		return t.LLCReservedFraction()
	}
	return 0
}

func accumStats(dst *rh.Stats, s rh.Stats) {
	dst.Activations += s.Activations
	dst.Mitigations += s.Mitigations
	dst.VictimRefreshes += s.VictimRefreshes
	dst.BulkResets += s.BulkResets
	dst.InjectedReads += s.InjectedReads
	dst.InjectedWrites += s.InjectedWrites
	dst.Throttled += s.Throttled
}
