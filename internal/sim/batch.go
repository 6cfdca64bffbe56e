// Batched multi-config execution: decode and replay a workload's
// instruction stream once, advance many tracker configurations in
// lockstep against it, and fall back to full independent runs for the
// points whose behavior would have perturbed the shared stream.
//
// The batching rests on the tracker contract's narrow influence
// surface. A tracker can change system evolution only through (a) the
// actions it returns from OnActivate/Tick, (b) rh.Throttler's
// NextAllowed, (c) rh.TimingTaxer's ActTax, and (d) rh.LLCReserver's
// LLCReservedFraction. For two configurations with equal (c) and (d),
// neither throttling, the whole system trajectory is a function of the
// action stream alone: if a follower configuration emits exactly the
// actions the lead emitted at every tracker invocation, every
// controller, core, cache and telemetry state transition is identical
// by induction, and its Result equals the lead's except for the
// tracker-owned fields (Stats, Name, table-occupancy telemetry).
//
// RunBatch exploits this: the lead point runs at full fidelity with a
// recording shim capturing every tracker input; each eligible follower
// then replays the recorded inputs into its own tracker instance,
// comparing emitted actions element-wise. The first mismatch is a
// divergence: the follower's feedback would have changed the stream, so
// it reruns independently (over the already-decoded trace buffers —
// decode still happens once). Throttlers always run independently:
// NextAllowed is consulted on the scheduling hot path, where "would
// this point have delayed the request" cannot be answered from the
// lead's stream.
package sim

import (
	"fmt"
	"slices"

	"dapper/internal/cpu"
	"dapper/internal/dram"
	"dapper/internal/rh"
	"dapper/internal/telemetry"
)

// BatchPoint is one sweep point in a RunBatch call: a tracker
// configuration plus its mitigation mode. The base Config's
// Tracker/Mode are ignored.
type BatchPoint struct {
	Tracker TrackerFactory
	Mode    rh.MitigationMode
}

// FallbackReason says why a point did not ride the lead's stream.
type FallbackReason string

const (
	// FallbackNone: the point replayed in lockstep.
	FallbackNone FallbackReason = ""
	// FallbackLead: the point was the lead, running the stream itself.
	FallbackLead FallbackReason = "lead"
	// FallbackThrottler: the tracker throttles (rh.Throttler), so its
	// scheduling influence cannot be checked against a recorded stream.
	FallbackThrottler FallbackReason = "throttler"
	// FallbackMode: the point's mitigation mode differs from the lead's
	// (mode changes mitigation timings, hence the stream).
	FallbackMode FallbackReason = "mode-mismatch"
	// FallbackActTax: the point's PRAC ACT tax differs from the lead's.
	FallbackActTax FallbackReason = "act-tax-mismatch"
	// FallbackLLCReserve: the point reserves a different LLC fraction.
	FallbackLLCReserve FallbackReason = "llc-reserve-mismatch"
	// FallbackDiverged: replay found an action mismatch; the point was
	// rerun independently.
	FallbackDiverged FallbackReason = "diverged"
)

// BatchOutcome reports how one point's Result was produced. Lockstep
// results are byte-identical to an independent Run of the same
// configuration (the equivalence tests enforce this); fallback results
// ARE independent runs.
type BatchOutcome struct {
	Lockstep   bool
	Reason     FallbackReason
	DivergedAt dram.Cycle // first mismatching tracker invocation (diverged only)
}

// traceBuffer caches one trace's decoded records so every run in the
// batch (lead and fallbacks alike) replays the exact same stream
// without re-decoding.
type traceBuffer struct {
	src  cpu.Trace
	recs []cpu.Record
}

func (b *traceBuffer) get(i int) cpu.Record {
	for len(b.recs) <= i {
		b.recs = append(b.recs, b.src.Next())
	}
	return b.recs[i]
}

// traceCursor is one run's read position over a shared traceBuffer.
type traceCursor struct {
	b *traceBuffer
	i int
}

func (c *traceCursor) Next() cpu.Record {
	r := c.b.get(c.i)
	c.i++
	return r
}

// Recorded tracker-input events. evStats marks a Stats() call — the
// engine snapshots tracker stats exactly twice (warmup boundary and
// run end), so replay recovers the follower's measured-window delta by
// reading its own Stats() at the same two points in the stream.
const (
	evAct uint8 = iota
	evTick
	evStats
)

type recEvent struct {
	kind uint8
	now  dram.Cycle
	loc  dram.Loc
	nAct int32 // actions emitted, stored flat in chanRecord.acts
}

// chanRecord is one channel's recorded stream.
type chanRecord struct {
	events []recEvent
	acts   []rh.Action
}

type batchRecorder struct {
	chans []chanRecord
}

// recordingTracker wraps the lead's per-channel tracker. It forwards
// everything and records every input plus the emitted actions. It
// always implements TimingTaxer and LLCReserver (forwarding the
// inner's value or the 0 default — indistinguishable from absence) and
// never Throttler (the lead is chosen non-throttling). TableReporter
// is forwarded conditionally via recordingTableTracker: the controller
// type-asserts it, and an unconditional implementation would make
// non-table trackers emit spurious table samples.
type recordingTracker struct {
	inner rh.Tracker
	rec   *chanRecord
}

func (r *recordingTracker) Name() string { return r.inner.Name() }

func (r *recordingTracker) OnActivate(now dram.Cycle, loc dram.Loc, buf []rh.Action) []rh.Action {
	start := len(buf)
	out := r.inner.OnActivate(now, loc, buf)
	r.rec.events = append(r.rec.events, recEvent{kind: evAct, now: now, loc: loc, nAct: int32(len(out) - start)})
	r.rec.acts = append(r.rec.acts, out[start:]...)
	return out
}

func (r *recordingTracker) Tick(now dram.Cycle, buf []rh.Action) []rh.Action {
	start := len(buf)
	out := r.inner.Tick(now, buf)
	r.rec.events = append(r.rec.events, recEvent{kind: evTick, now: now, nAct: int32(len(out) - start)})
	r.rec.acts = append(r.rec.acts, out[start:]...)
	return out
}

func (r *recordingTracker) Stats() rh.Stats {
	r.rec.events = append(r.rec.events, recEvent{kind: evStats})
	return r.inner.Stats()
}

func (r *recordingTracker) ActTax() dram.Cycle {
	if t, ok := r.inner.(rh.TimingTaxer); ok {
		return t.ActTax()
	}
	return 0
}

func (r *recordingTracker) LLCReservedFraction() float64 {
	if t, ok := r.inner.(rh.LLCReserver); ok {
		return t.LLCReservedFraction()
	}
	return 0
}

type recordingTableTracker struct {
	recordingTracker
}

func (r *recordingTableTracker) TableOccupancy() rh.TableOccupancy {
	return r.inner.(rh.TableReporter).TableOccupancy()
}

func (r *batchRecorder) wrapTracker(ch int, t rh.Tracker) rh.Tracker {
	rt := recordingTracker{inner: t, rec: &r.chans[ch]}
	if _, ok := t.(rh.TableReporter); ok {
		return &recordingTableTracker{rt}
	}
	return &rt
}

// pointTraits are the stream-shaping properties of a configuration,
// probed from a throwaway channel-0 instance.
type pointTraits struct {
	throttler bool
	tax       dram.Cycle
	reserve   float64
}

func probeTraits(f TrackerFactory) pointTraits {
	t := f(0)
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

// RunBatch executes every point against base's workload, decoding the
// trace stream once. The first non-throttling point runs at full
// fidelity as the lead; every other compatible point replays the
// lead's recorded tracker inputs in lockstep, falling back to an
// independent run (same decoded buffers) on any action divergence.
// Results are positionally parallel to points and byte-identical to
// what sim.Run would produce for each configuration; outcomes say
// which path produced each one. base's Tracker and Mode fields are
// ignored; a base Sink is an error, since a replayed point has no
// controller stream to tap.
func RunBatch(base Config, points []BatchPoint) ([]Result, []BatchOutcome, error) {
	if len(points) == 0 {
		return nil, nil, fmt.Errorf("sim: RunBatch needs at least one point")
	}
	if base.Sink != nil {
		return nil, nil, fmt.Errorf("sim: RunBatch takes no Sink (replayed points have no controller stream); run audited points with Run")
	}
	base = base.withDefaults()
	if len(base.Traces) == 0 {
		return nil, nil, fmt.Errorf("sim: no traces")
	}

	pts := slices.Clone(points)
	for i := range pts {
		if pts[i].Tracker == nil {
			pts[i].Tracker = NopFactory
		}
	}

	bufs := make([]*traceBuffer, len(base.Traces))
	for i, t := range base.Traces {
		bufs[i] = &traceBuffer{src: t}
	}
	cursors := func() []cpu.Trace {
		out := make([]cpu.Trace, len(bufs))
		for i, b := range bufs {
			out[i] = &traceCursor{b: b}
		}
		return out
	}

	traits := make([]pointTraits, len(pts))
	for i := range pts {
		traits[i] = probeTraits(pts[i].Tracker)
	}
	lead := -1
	for i := range pts {
		if !traits[i].throttler {
			lead = i
			break
		}
	}

	results := make([]Result, len(pts))
	outcomes := make([]BatchOutcome, len(pts))
	runIndependent := func(i int) error {
		cfg := base
		cfg.Tracker = pts[i].Tracker
		cfg.Mode = pts[i].Mode
		cfg.Traces = cursors()
		res, err := Run(cfg)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	}

	if lead < 0 {
		// Every point throttles: there is no shared stream to record.
		for i := range pts {
			outcomes[i] = BatchOutcome{Reason: FallbackThrottler}
			if err := runIndependent(i); err != nil {
				return nil, nil, err
			}
		}
		return results, outcomes, nil
	}

	eligible := make([]bool, len(pts))
	for i := range pts {
		switch {
		case i == lead:
			outcomes[i] = BatchOutcome{Reason: FallbackLead}
		case traits[i].throttler:
			outcomes[i] = BatchOutcome{Reason: FallbackThrottler}
		case pts[i].Mode != pts[lead].Mode:
			outcomes[i] = BatchOutcome{Reason: FallbackMode}
		case traits[i].tax != traits[lead].tax:
			outcomes[i] = BatchOutcome{Reason: FallbackActTax}
		case traits[i].reserve != traits[lead].reserve:
			outcomes[i] = BatchOutcome{Reason: FallbackLLCReserve}
		default:
			eligible[i] = true
		}
	}

	rec := &batchRecorder{chans: make([]chanRecord, base.Geometry.Channels)}
	leadCfg := base
	leadCfg.Tracker = pts[lead].Tracker
	leadCfg.Mode = pts[lead].Mode
	leadCfg.Traces = cursors()
	leadRes, err := run(leadCfg, rec.wrapTracker)
	if err != nil {
		return nil, nil, err
	}
	results[lead] = leadRes

	for i := range pts {
		if i == lead {
			continue
		}
		if eligible[i] {
			res, divergedAt, ok := rec.replay(pts[i], leadRes)
			if ok {
				results[i] = res
				outcomes[i] = BatchOutcome{Lockstep: true}
				continue
			}
			outcomes[i] = BatchOutcome{Reason: FallbackDiverged, DivergedAt: divergedAt}
		}
		if err := runIndependent(i); err != nil {
			return nil, nil, err
		}
	}
	return results, outcomes, nil
}

// replay advances one eligible point's trackers through the recorded
// stream. On full action agreement it assembles the point's Result
// from the lead's (cloned) system-side fields plus the follower's own
// tracker-side fields; on the first mismatch it reports divergence.
// Table-occupancy telemetry is tracker-side: the follower's snapshots,
// taken where the live controller takes them (right after each
// periodic tick), fold through a telemetry Recorder of the lead's
// window grid.
func (r *batchRecorder) replay(p BatchPoint, lead Result) (Result, dram.Cycle, bool) {
	var tables *telemetry.Recorder
	if s := lead.Series; s != nil {
		var err error
		tables, err = telemetry.NewRecorder(telemetry.RecorderConfig{
			Cores: len(s.Cores), Channels: len(r.chans), Window: s.Window, End: s.Cycles, Warmup: s.Warmup,
		})
		if err != nil {
			return Result{}, 0, false
		}
	}
	var warm, fin rh.Stats
	names := make([]string, 0, len(r.chans))
	buf := make([]rh.Action, 0, 64)

	for ch := range r.chans {
		cr := &r.chans[ch]
		tr := p.Tracker(ch)
		names = append(names, tr.Name())
		tab, _ := tr.(rh.TableReporter)
		var sink rh.Sink
		if tab != nil && tables != nil {
			sink = tables.Sink(ch)
		}
		statsMark := 0
		ai := 0
		for e := range cr.events {
			ev := &cr.events[e]
			switch ev.kind {
			case evAct, evTick:
				if ev.kind == evAct {
					buf = tr.OnActivate(ev.now, ev.loc, buf[:0])
				} else {
					buf = tr.Tick(ev.now, buf[:0])
				}
				want := cr.acts[ai : ai+int(ev.nAct)]
				ai += int(ev.nAct)
				if len(buf) != len(want) {
					return Result{}, ev.now, false
				}
				for k := range want {
					if buf[k] != want[k] {
						return Result{}, ev.now, false
					}
				}
				if ev.kind == evTick && sink != nil {
					sink.Event(rh.Event{Kind: rh.EvTable, At: ev.now, Table: tab.TableOccupancy()})
				}
			case evStats:
				s := tr.Stats()
				if statsMark == 0 {
					accumStats(&warm, s)
				} else {
					accumStats(&fin, s)
				}
				statsMark++
			}
		}
		if statsMark != 2 {
			// The engines snapshot exactly twice; anything else means the
			// recording is unusable — rerun independently.
			return Result{}, 0, false
		}
	}

	res := Result{
		IPC:          slices.Clone(lead.IPC),
		Instructions: slices.Clone(lead.Instructions),
		Cycles:       lead.Cycles,
		Counters:     lead.Counters,
		Mem:          lead.Mem,
		LLCHitRate:   lead.LLCHitRate,
		TrackerNames: names,
	}
	subStats(&fin, warm)
	res.Tracker = fin
	if lead.Attribution != nil {
		res.Attribution = lead.Attribution.Clone()
	}
	if tables != nil {
		own := tables.Finish()
		s := lead.Series.Clone()
		for ch := range s.Channels {
			cs, o := &s.Channels[ch], &own.Channels[ch]
			cs.TableUsed, cs.TableResets, cs.TableCap = o.TableUsed, o.TableResets, o.TableCap
		}
		res.Series = s
	}
	return res, 0, true
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
