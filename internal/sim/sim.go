// Package sim wires the full Table I system together: four out-of-order
// cores, a shared LLC, two memory-channel controllers, and one RowHammer
// tracker instance per channel. It runs warmup + measurement windows and
// reports per-core IPC plus DRAM/tracker statistics — the raw material
// for every figure in the paper.
package sim

import (
	"fmt"

	"dapper/internal/cache"
	"dapper/internal/cpu"
	"dapper/internal/dram"
	"dapper/internal/mem"
	"dapper/internal/rh"
	"dapper/internal/secaudit"
	"dapper/internal/telemetry"
)

// TrackerFactory builds one tracker per channel (trackers are
// per-channel structures in every design the paper evaluates).
type TrackerFactory func(channel int) rh.Tracker

// NopFactory is the insecure baseline.
func NopFactory(channel int) rh.Tracker { return rh.NewNop() }

// SinkFactory builds one passive controller event sink per channel
// (internal/secaudit's shadow oracle is the main implementer).
// Returning nil for a channel leaves that channel's stream untapped.
type SinkFactory func(channel int) rh.Sink

// Engine selects the simulation loop strategy. Both engines produce
// byte-identical Results (the equivalence test matrix enforces this);
// the event engine is simply faster because it skips provably dead
// cycles.
type Engine string

const (
	// EngineEvent advances time directly to the next wake point — the
	// earliest refresh deadline, tracker tick, scheduling attempt, ROB
	// wakeup or write-back completion — whenever every component is
	// quiescent. The default.
	EngineEvent Engine = "event"
	// EngineCycle ticks every component on every DRAM cycle: the
	// reference loop, kept as an escape hatch and as the oracle the
	// equivalence tests compare against.
	EngineCycle Engine = "cycle"
)

// OrDefault resolves the zero value to the default engine.
func (e Engine) OrDefault() Engine {
	if e == "" {
		return EngineEvent
	}
	return e
}

// ParseEngine parses a flag value ("event" or "cycle"; "" = default).
func ParseEngine(s string) (Engine, error) {
	switch Engine(s) {
	case "", EngineEvent:
		return EngineEvent, nil
	case EngineCycle:
		return EngineCycle, nil
	}
	return "", fmt.Errorf("sim: unknown engine %q (event|cycle)", s)
}

// Config describes one simulation run.
type Config struct {
	Geometry dram.Geometry
	Timing   dram.Timing
	// LLCBytes/LLCWays size the shared cache (Table I: 8MB, 16-way).
	LLCBytes int
	LLCWays  int
	// LLCLatency is the hit latency.
	LLCLatency dram.Cycle
	// Tracker builds the per-channel tracker (NopFactory if nil).
	Tracker TrackerFactory
	Mode    rh.MitigationMode
	// Traces drive the cores (one each).
	Traces []cpu.Trace
	// Warmup runs before statistics reset; Measure is the measured
	// window.
	Warmup  dram.Cycle
	Measure dram.Cycle
	// Engine selects the loop strategy (EngineEvent if empty).
	Engine Engine
	// Sink, if non-nil, taps every controller's event stream (see
	// rh.Sink), teed with the telemetry and attribution folds when those
	// are on. Purely passive: attaching a sink never changes the
	// Result's other fields, and the stream is identical under both
	// engines.
	Sink SinkFactory
	// TelemetryWindow, when positive, turns on the cycle-windowed
	// telemetry sampler: Result.Series carries per-window time-series
	// (IPC, stall fraction, ACT and mitigation rates, queue and tracker
	// table occupancy) folded at this window width. Zero (the default)
	// disables collection entirely — no sink attaches, and the only cost
	// on any hot path is a nil check. The fold is exact under time-skip,
	// so the Series is byte-identical across engines and reruns.
	TelemetryWindow dram.Cycle
	// Attribution, when set, turns on the slowdown-attribution layer:
	// Result.Attribution carries per-core CPI stacks (dispatch vs
	// ROB-full vs backpressure), per-core memory-blame breakdowns, and
	// the N×N core→core interference blame matrix. When TelemetryWindow
	// is also set, windowed blame series and the stall split ride
	// Result.Series. Off (the default), no blame fold attaches and the
	// only cost on any hot path is a nil check. The attribution is
	// exact arithmetic on event timestamps: byte-identical across
	// engines, and conservation-checked on every run (CPI buckets sum
	// to cycles; blame buckets sum to the controller's read wait).
	Attribution bool
}

// withDefaults fills zero fields with Table I values.
func (c Config) withDefaults() Config {
	if c.Geometry.Channels == 0 {
		c.Geometry = dram.Baseline()
	}
	if c.Timing == (dram.Timing{}) {
		c.Timing = dram.DDR5()
	}
	c.Engine = c.Engine.OrDefault()
	if c.LLCBytes == 0 {
		c.LLCBytes = 8 << 20
	}
	if c.LLCWays == 0 {
		c.LLCWays = 16
	}
	if c.LLCLatency == 0 {
		c.LLCLatency = dram.NS(10)
	}
	if c.Tracker == nil {
		c.Tracker = NopFactory
	}
	if c.Warmup == 0 {
		c.Warmup = dram.US(50)
	}
	if c.Measure == 0 {
		c.Measure = dram.US(300)
	}
	return c
}

// Result is the outcome of a run; all statistics cover the measurement
// window only.
type Result struct {
	IPC          []float64 // per core
	Instructions []uint64  // per core
	Cycles       dram.Cycle
	Counters     dram.Counters // summed over channels
	Tracker      rh.Stats      // summed over channels
	Mem          mem.Stats     // summed over channels
	LLCHitRate   float64
	TrackerNames []string
	// Audit carries the shadow security oracle's verdict when the run
	// was audited (exp attaches it after Run; nil otherwise). It rides
	// in the Result so harness caching and sinks see one record per run.
	Audit *secaudit.Report `json:"Audit,omitempty"`
	// Series carries the cycle-windowed telemetry when
	// Config.TelemetryWindow was set (nil otherwise). Unlike every other
	// field it covers the whole run including warmup — dynamics are the
	// point — with the warmup boundary recorded inside.
	Series *telemetry.Series `json:"Series,omitempty"`
	// Attribution carries the slowdown-attribution stacks when
	// Config.Attribution was set (nil otherwise). Like Series it covers
	// the whole run including warmup.
	Attribution *telemetry.Attribution `json:"Attribution,omitempty"`
}

// Run executes the simulation.
func Run(cfg Config) (Result, error) {
	return run(cfg, nil)
}

// run is Run with the batched runner's hook: wrapT, applied to each
// per-channel tracker right after construction (before the optional
// TimingTaxer/LLCReserver extensions are probed, so a wrapper's
// forwarded values are the ones the system sees). A nil wrapT
// reproduces Run exactly.
func run(cfg Config, wrapT func(channel int, t rh.Tracker) rh.Tracker) (Result, error) {
	if cfg.Warmup < 0 || cfg.Measure < 0 || cfg.TelemetryWindow < 0 {
		return Result{}, fmt.Errorf("sim: negative warmup %d, measure %d or telemetry window %d",
			cfg.Warmup, cfg.Measure, cfg.TelemetryWindow)
	}
	cfg = cfg.withDefaults()
	if err := cfg.Geometry.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.Timing.Validate(); err != nil {
		return Result{}, err
	}
	if _, err := ParseEngine(string(cfg.Engine)); err != nil {
		return Result{}, err
	}
	if len(cfg.Traces) == 0 {
		return Result{}, fmt.Errorf("sim: no traces")
	}
	end := cfg.Warmup + cfg.Measure

	var rec *telemetry.Recorder
	if cfg.TelemetryWindow > 0 {
		var err error
		rec, err = telemetry.NewRecorder(telemetry.RecorderConfig{
			Cores:       len(cfg.Traces),
			Channels:    cfg.Geometry.Channels,
			Window:      cfg.TelemetryWindow,
			End:         end,
			Warmup:      cfg.Warmup,
			SplitStalls: cfg.Attribution,
		})
		if err != nil {
			return Result{}, err
		}
	}
	var blameRec *telemetry.BlameRecorder
	if cfg.Attribution {
		var err error
		blameRec, err = telemetry.NewBlameRecorder(telemetry.BlameRecorderConfig{
			Cores:           len(cfg.Traces),
			Channels:        cfg.Geometry.Channels,
			BanksPerChannel: cfg.Geometry.BanksPerChannel(),
			Window:          cfg.TelemetryWindow,
			End:             end,
		})
		if err != nil {
			return Result{}, err
		}
	}

	trackers := make([]rh.Tracker, cfg.Geometry.Channels)
	for ch := range trackers {
		trackers[ch] = cfg.Tracker(ch)
		if wrapT != nil {
			trackers[ch] = wrapT(ch, trackers[ch])
		}
	}

	// Optional tracker extensions: PRAC's ACT tax and START's LLC
	// reservation.
	timing := cfg.Timing
	if taxer, ok := trackers[0].(rh.TimingTaxer); ok {
		timing.PRACActTax = taxer.ActTax()
	}
	llcBytes := cfg.LLCBytes
	if res, ok := trackers[0].(rh.LLCReserver); ok {
		llcBytes = int(float64(llcBytes) * (1 - res.LLCReservedFraction()))
	}

	controllers := make([]*mem.Controller, cfg.Geometry.Channels)
	for ch := range controllers {
		controllers[ch] = mem.NewController(ch, cfg.Geometry, timing, trackers[ch], cfg.Mode)
		var sinks []rh.Sink
		if cfg.Sink != nil {
			sinks = append(sinks, cfg.Sink(ch))
		}
		if rec != nil {
			sinks = append(sinks, rec.Sink(ch))
		}
		if blameRec != nil {
			sinks = append(sinks, blameRec.Sink(ch))
		}
		controllers[ch].SetSink(rh.Tee(sinks...))
	}

	llc, err := cache.NewBySize(llcBytes, cfg.LLCWays, cfg.Geometry.LineBytes)
	if err != nil {
		return Result{}, err
	}
	hier := &hierarchy{
		geo:    cfg.Geometry,
		llc:    llc,
		ctrls:  controllers,
		llcLat: cfg.LLCLatency,
	}

	cores := make([]*cpu.Core, len(cfg.Traces))
	for i, tr := range cfg.Traces {
		cores[i] = cpu.New(i, tr, hier)
		if rec != nil {
			cores[i].SetProbe(rec.CoreProbe(i))
		}
	}

	var base snapshots
	if cfg.Engine == EngineCycle {
		for now := dram.Cycle(0); now < end; now++ {
			for _, c := range controllers {
				c.Tick(now)
			}
			hier.flush(now)
			for _, c := range cores {
				c.Step(now)
			}
			if now == cfg.Warmup {
				base = snapshot(cores, controllers, trackers, llc)
			}
		}
	} else {
		base = runEvent(cfg, controllers, hier, cores, trackers, llc, end)
	}
	final := snapshot(cores, controllers, trackers, llc)

	res := Result{Cycles: cfg.Measure}
	for i := range cores {
		instr := final.retired[i] - base.retired[i]
		res.Instructions = append(res.Instructions, instr)
		res.IPC = append(res.IPC, float64(instr)/float64(cfg.Measure))
	}
	res.Counters = final.counters
	sub(&res.Counters, base.counters)
	res.Tracker = final.tracker
	subStats(&res.Tracker, base.tracker)
	res.Mem = final.mem
	subMem(&res.Mem, base.mem)
	if acc := final.llcAcc - base.llcAcc; acc > 0 {
		res.LLCHitRate = float64(final.llcHit-base.llcHit) / float64(acc)
	}
	for _, t := range trackers {
		res.TrackerNames = append(res.TrackerNames, t.Name())
	}
	var series *telemetry.Series
	if rec != nil {
		series = rec.Finish()
	}
	if blameRec != nil {
		attr := blameRec.Finish()
		for i, c := range cores {
			rob, bp := c.StallBreakdown()
			cyc := c.Cycles()
			attr.Cores[i].CPI = telemetry.CPIStack{
				Cycles:   cyc,
				Dispatch: cyc - rob - bp,
				StallROB: rob,
				StallBP:  bp,
			}
		}
		if err := attr.Validate(); err != nil {
			return Result{}, err
		}
		// Grand-total conservation against the controllers' own
		// accounting: every core's cycle count is the run length, and
		// the blame buckets across cores sum exactly to the cumulative
		// demand-read wait the controllers measured.
		var blameTotal uint64
		for i := range attr.Cores {
			if attr.Cores[i].CPI.Cycles != uint64(end) {
				return Result{}, fmt.Errorf("sim: attribution conservation violated: core %d counted %d cycles, run has %d",
					i, attr.Cores[i].CPI.Cycles, end)
			}
			blameTotal += attr.Cores[i].Mem.Total
		}
		if blameTotal != uint64(final.mem.TotalReadWait) {
			return Result{}, fmt.Errorf("sim: attribution conservation violated: blame total %d != read wait %d",
				blameTotal, final.mem.TotalReadWait)
		}
		if series != nil {
			series.Blame = blameRec.WindowSeries()
			if err := attr.CheckSeries(series); err != nil {
				return Result{}, err
			}
		}
		res.Attribution = attr
	}
	if series != nil {
		if err := series.Validate(); err != nil {
			return Result{}, err
		}
		if err := checkConservation(series, final, cores); err != nil {
			return Result{}, err
		}
		res.Series = series
	}
	return res, nil
}

// checkConservation cross-checks the telemetry fold's grand totals
// against the simulator's own end-of-run counters. Every DRAM counter
// increment corresponds to exactly one observed telemetry event
// regardless of timestamp, so the equalities are exact; any mismatch
// means the fold dropped or duplicated an event and fails the run.
func checkConservation(s *telemetry.Series, final snapshots, cores []*cpu.Core) error {
	type check struct {
		name      string
		got, want uint64
	}
	var retired, stalls uint64
	for _, c := range cores {
		retired += c.Retired()
		stalls += c.StallCycles()
	}
	t := s.Totals
	checks := []check{
		{"ACT", t.DemandACT + t.InjACT, final.counters.ACT},
		{"VRR", t.VRR, final.counters.VRR},
		{"RFMsb", t.RFMsb, final.counters.RFMsb},
		{"DRFMsb", t.DRFMsb, final.counters.DRFMsb},
		{"bulk", t.Bulk, final.counters.BulkEvents},
		{"REF", t.REF, final.counters.REF},
		{"retired", t.Retired, retired},
		{"stalls", t.Stalls, stalls},
	}
	for _, c := range checks {
		if c.got != c.want {
			return fmt.Errorf("sim: telemetry conservation violated: %s series total %d != counter %d",
				c.name, c.got, c.want)
		}
	}
	return nil
}

// runEvent is the event-driven loop: each component is processed only
// when due, and time advances straight to the earliest wake across all
// components. Correctness rests on three contracts, each of which makes
// a component's behavior identical whether it is driven every cycle or
// only at its wake times:
//
//   - mem.Controller.Tick replays the skipped backoff trajectory
//     (catch-up) and NextEvent never reports a wake later than the
//     first cycle the controller could change state;
//   - cpu.Core.Step replays skipped interaction-free cycles exactly,
//     and NextEvent's bubble horizon is a lower bound on the next
//     memory access; a backpressure-stalled core is stepped at every
//     iteration since its retry outcome depends on memory-system state;
//   - all cross-component interactions (enqueue, service completion,
//     write-back admission) happen at iteration times by construction,
//     so skipped cycles are provably no-ops for every skipped component.
//
// The warmup and final cycles are never skipped: the statistics
// snapshots must observe the same retirement state as the cycle engine.
func runEvent(cfg Config, controllers []*mem.Controller, hier *hierarchy,
	cores []*cpu.Core, trackers []rh.Tracker, llc *cache.Cache, end dram.Cycle) snapshots {
	var base snapshots
	nCtrl, nCore := len(controllers), len(cores)
	ctrlWake := make([]dram.Cycle, nCtrl)
	ctrlVer := make([]uint64, nCtrl)
	ctrlTicked := make([]bool, nCtrl)
	coreWake := make([]dram.Cycle, nCore)

	for now := dram.Cycle(0); now < end; {
		for ch, c := range controllers {
			if now >= ctrlWake[ch] {
				c.Tick(now)
				ctrlTicked[ch] = true
			}
		}
		hier.flush(now)
		boundary := now == cfg.Warmup || now == end-1
		for i, c := range cores {
			switch {
			case now >= coreWake[i] || c.Stalled() || boundary:
				c.Step(now)
				coreWake[i] = c.NextEvent(now)
			case coreWake[i] == dram.Never:
				// Externally blocked on an in-flight ROB head: re-poll
				// (read-only) — the controller may just have given the
				// request its completion time.
				coreWake[i] = c.NextEvent(now)
			}
		}
		if now == cfg.Warmup {
			base = snapshot(cores, controllers, trackers, llc)
		}

		wake := dram.Never
		for ch, c := range controllers {
			if ctrlTicked[ch] || c.Version() != ctrlVer[ch] {
				ctrlWake[ch] = c.NextEvent(now)
				ctrlVer[ch] = c.Version()
				ctrlTicked[ch] = false
			}
			if ctrlWake[ch] < wake {
				wake = ctrlWake[ch]
			}
		}
		for i := range cores {
			if coreWake[i] < wake {
				wake = coreWake[i]
			}
		}
		if w := hier.nextEvent(now); w < wake {
			wake = w
		}
		if wake < now+1 {
			wake = now + 1
		}
		if now < cfg.Warmup && wake > cfg.Warmup {
			wake = cfg.Warmup
		}
		if wake > end-1 && now < end-1 {
			wake = end - 1
		}
		now = wake
	}
	return base
}

// MustRun is Run panicking on configuration errors.
func MustRun(cfg Config) Result {
	r, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

type snapshots struct {
	retired  []uint64
	counters dram.Counters
	tracker  rh.Stats
	mem      mem.Stats
	llcHit   uint64
	llcAcc   uint64
}

func snapshot(cores []*cpu.Core, ctrls []*mem.Controller, trackers []rh.Tracker, llc *cache.Cache) snapshots {
	s := snapshots{}
	for _, c := range cores {
		s.retired = append(s.retired, c.Retired())
	}
	for _, c := range ctrls {
		s.counters.Add(c.Counters())
		st := c.Stats()
		s.mem.ReadsServed += st.ReadsServed
		s.mem.WritesServed += st.WritesServed
		s.mem.RowHits += st.RowHits
		s.mem.RowMisses += st.RowMisses
		s.mem.TotalReadWait += st.TotalReadWait
		s.mem.Refreshes += st.Refreshes
	}
	for _, t := range trackers {
		accumStats(&s.tracker, t.Stats())
	}
	s.llcHit = llc.Hits()
	s.llcAcc = llc.Hits() + llc.Misses()
	return s
}

func sub(a *dram.Counters, b dram.Counters) {
	a.ACT -= b.ACT
	a.RD -= b.RD
	a.WR -= b.WR
	a.REF -= b.REF
	a.VRR -= b.VRR
	a.RFMsb -= b.RFMsb
	a.DRFMsb -= b.DRFMsb
	a.BulkEvents -= b.BulkEvents
	a.BulkRows -= b.BulkRows
	a.InjRD -= b.InjRD
	a.InjWR -= b.InjWR
}

func subStats(a *rh.Stats, b rh.Stats) {
	a.Activations -= b.Activations
	a.Mitigations -= b.Mitigations
	a.VictimRefreshes -= b.VictimRefreshes
	a.BulkResets -= b.BulkResets
	a.InjectedReads -= b.InjectedReads
	a.InjectedWrites -= b.InjectedWrites
	a.Throttled -= b.Throttled
}

func subMem(a *mem.Stats, b mem.Stats) {
	a.ReadsServed -= b.ReadsServed
	a.WritesServed -= b.WritesServed
	a.RowHits -= b.RowHits
	a.RowMisses -= b.RowMisses
	a.TotalReadWait -= b.TotalReadWait
	a.Refreshes -= b.Refreshes
}

// hierarchy implements cpu.Memory: shared LLC in front of the channel
// controllers. Write-back, allocate-on-miss; evicted dirty lines become
// DRAM write-backs via a bounded backlog.
type hierarchy struct {
	geo     dram.Geometry
	llc     *cache.Cache
	ctrls   []*mem.Controller
	llcLat  dram.Cycle
	backlog []*mem.Request
	pool    []*mem.Request
}

const backlogCap = 64

func (h *hierarchy) getReq() *mem.Request {
	if n := len(h.pool); n > 0 {
		r := h.pool[n-1]
		h.pool = h.pool[:n-1]
		*r = mem.Request{}
		return r
	}
	return &mem.Request{}
}

// nextEvent returns the earliest future cycle at which the backlog
// changes on its own: the next in-flight write-back completion.
// Admission retries for not-yet-enqueued write-backs piggyback on
// controller events (a queue slot only frees when a controller services
// a request, which is a controller wake).
func (h *hierarchy) nextEvent(now dram.Cycle) dram.Cycle {
	next := dram.Never
	for _, r := range h.backlog {
		if r.Done && r.DoneAt > now && r.DoneAt < next {
			next = r.DoneAt
		}
	}
	return next
}

// flush retires completed write-backs and retries queued ones.
func (h *hierarchy) flush(now dram.Cycle) {
	kept := h.backlog[:0]
	for _, r := range h.backlog {
		if r.Done && r.DoneAt <= now {
			if len(h.pool) < 128 {
				h.pool = append(h.pool, r)
			}
			continue
		}
		if !r.Done && r.EnqueuedAt == -1 {
			// Not yet admitted: retry.
			ch := r.Loc.Channel
			if h.ctrls[ch].CanEnqueue() {
				h.ctrls[ch].Enqueue(r, now)
			}
		}
		kept = append(kept, r)
	}
	h.backlog = kept
}

// Access implements cpu.Memory.
func (h *hierarchy) Access(now dram.Cycle, core int, req *mem.Request) (dram.Cycle, *mem.Request, bool) {
	addr := req.Addr
	if cpu.IsNC(addr) {
		// Non-cacheable: straight to DRAM. Check for room before decoding
		// the address: a core stalled on a full queue retries every cycle.
		pa := cpu.StripNC(addr)
		ctrl := h.ctrls[h.geo.Channel(pa)]
		if !ctrl.CanEnqueue() {
			return 0, nil, false
		}
		req.Addr = pa
		req.Loc = h.geo.Decompose(pa)
		ctrl.Enqueue(req, now)
		return 0, req, true
	}

	if len(h.backlog) >= backlogCap {
		return 0, nil, false // write-back pressure: stall the core
	}

	line := addr / uint64(h.geo.LineBytes)
	// A miss needs a fill slot in the target channel's queue; check
	// before touching the LLC so backpressured misses don't allocate
	// lines they never fetched. The queue test goes first: it is cheap,
	// and it spares the set scan on every access whose queue has room.
	if !h.ctrls[h.geo.Channel(addr)].CanEnqueue() && !h.llc.Contains(line) {
		return 0, nil, false
	}
	res := h.llc.Access(line, req.IsWrite)
	if res.Evicted && res.EvictedDirty {
		wb := h.getReq()
		wb.Addr = res.EvictedKey * uint64(h.geo.LineBytes)
		wb.Loc = h.geo.Decompose(wb.Addr)
		wb.IsWrite = true
		wb.Core = -1
		wb.EnqueuedAt = -1
		if !h.ctrls[wb.Loc.Channel].Enqueue(wb, now) {
			wb.EnqueuedAt = -1 // admission failed; flush() retries
		}
		h.backlog = append(h.backlog, wb)
	}
	if res.Hit {
		return h.llcLat, nil, true
	}
	// Miss: fetch the line from DRAM (writes allocate and complete when
	// the fill returns; the dirty data stays in the LLC).
	req.Loc = h.geo.Decompose(addr)
	wasWrite := req.IsWrite
	req.IsWrite = false // the DRAM side sees a fill read
	if !h.ctrls[req.Loc.Channel].Enqueue(req, now) {
		req.IsWrite = wasWrite
		return 0, nil, false
	}
	return 0, req, true
}
