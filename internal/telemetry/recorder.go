package telemetry

import (
	"fmt"

	"dapper/internal/dram"
	"dapper/internal/rh"
)

// MaxWindows bounds the windowed-series footprint: a run asking for
// more windows than this is a configuration error (pick a larger
// window), not something to silently truncate.
const MaxWindows = 1 << 23

// Config sizes a Recorder for one run.
type Config struct {
	Cores    int
	Channels int
	// BanksPerChannel sizes the blame ledgers (attribution only).
	BanksPerChannel int
	// Window is the Series' fold width in DRAM cycles; 0 records the
	// Attribution only.
	Window dram.Cycle
	// End is the run length in cycles (warmup + measure); windows are
	// anchored at cycle 0 and cover [0, End), and the attribution covers
	// the whole run too.
	End dram.Cycle
	// Warmup is recorded into the Series so consumers can slice off the
	// transient; it does not affect the fold.
	Warmup dram.Cycle
	// Attribution folds serve and block events into the Attribution's
	// memory blame. With a window it also splits each window's stalls
	// (CoreSeries.StallROB/StallBP) and folds the blame per window
	// (Series.Blame).
	Attribution bool
}

// Recorder folds the in-sim event stream into a windowed Series and a
// slowdown Attribution. It is wired per component: Sink(ch) attaches to
// channel ch's memory controller, CoreProbe(i) to core i. All methods
// are single-threaded (the simulator is), and every fold is plain cycle
// arithmetic on event timestamps — no wall clock, no sampling — so the
// result depends only on the event stream, which both engines emit
// identically.
type Recorder struct {
	cfg  Config
	nWin int // 0 when the run records no Series

	cores    []coreAcc
	channels []chanAcc
	totals   Totals

	finished bool
}

type coreAcc struct {
	// Windowed series; nil without a window.
	retired []uint64
	stalls  []uint64
	// Stall split and windowed blame; nil unless both the window and
	// attribution are on.
	stallROB []uint64
	stallBP  []uint64
	blameWin [numBlameBuckets][]uint64

	// Attribution grand totals: the blame buckets and this core's row of
	// the blame matrix (nil without attribution).
	blame  blameBuckets
	matrix []uint64
}

type chanAcc struct {
	demandACT []uint64
	injACT    []uint64
	vrr       []uint64
	rfmsb     []uint64
	drfmsb    []uint64
	bulk      []uint64
	ref       []uint64

	queueOcc    []uint64
	injQueueOcc []uint64
	// Queue integrator state: occupancy is piecewise constant between
	// samples, integrated lazily up to each sample's (monotonically
	// clamped) timestamp.
	occAt       dram.Cycle
	demandLevel int
	injLevel    int

	// Table samples: last sample per window, forward-filled at Finish.
	hasTable    bool
	tableSeen   []bool
	tableUsed   []int
	tableResets []uint64
	tableCap    int

	// Blame state (attribution only): one ledger per bank; who opened
	// each bank's open row (a core id, -1 for none or a write-back, -2
	// for injected counter traffic), which is what lets a row-buffer
	// conflict name its culprit; and the ledgers' pruning watermark.
	banks   []bankLedger
	openers []int16
	floor   dram.Cycle
}

// NewRecorder builds a Recorder; it fails if the recorder would record
// nothing or the window grid would be degenerate or oversized.
func NewRecorder(cfg Config) (*Recorder, error) {
	if cfg.Window < 0 || cfg.Window == 0 && !cfg.Attribution {
		return nil, fmt.Errorf("telemetry: window must be positive without attribution, got %d", cfg.Window)
	}
	if cfg.End <= 0 {
		return nil, fmt.Errorf("telemetry: run length must be positive, got %d", cfg.End)
	}
	if cfg.Cores <= 0 || cfg.Channels <= 0 || cfg.Attribution && cfg.BanksPerChannel <= 0 {
		return nil, fmt.Errorf("telemetry: need at least one core, channel and bank (%d, %d, %d)",
			cfg.Cores, cfg.Channels, cfg.BanksPerChannel)
	}
	r := &Recorder{cfg: cfg}
	if cfg.Window > 0 {
		nWin := (cfg.End + cfg.Window - 1) / cfg.Window
		if nWin > MaxWindows {
			return nil, fmt.Errorf("telemetry: window %d yields %d windows over %d cycles (max %d); use a larger window",
				cfg.Window, nWin, cfg.End, MaxWindows)
		}
		r.nWin = int(nWin)
	}
	win := func() []uint64 { return make([]uint64, r.nWin) }
	r.cores = make([]coreAcc, cfg.Cores)
	for i := range r.cores {
		c := &r.cores[i]
		if r.nWin > 0 {
			c.retired, c.stalls = win(), win()
		}
		if cfg.Attribution {
			c.matrix = make([]uint64, cfg.Cores)
		}
		if r.nWin > 0 && cfg.Attribution {
			c.stallROB, c.stallBP = win(), win()
			for b := range c.blameWin {
				c.blameWin[b] = win()
			}
		}
	}
	r.channels = make([]chanAcc, cfg.Channels)
	for i := range r.channels {
		c := &r.channels[i]
		if r.nWin > 0 {
			*c = chanAcc{
				demandACT:   win(),
				injACT:      win(),
				vrr:         win(),
				rfmsb:       win(),
				drfmsb:      win(),
				bulk:        win(),
				ref:         win(),
				queueOcc:    win(),
				injQueueOcc: win(),
				tableSeen:   make([]bool, r.nWin),
				tableUsed:   make([]int, r.nWin),
				tableResets: win(),
			}
		}
		if cfg.Attribution {
			c.banks = make([]bankLedger, cfg.BanksPerChannel)
			c.openers = make([]int16, cfg.BanksPerChannel)
			for b := range c.openers {
				c.openers[b] = -1
			}
		}
	}
	return r, nil
}

// windowOf maps an event timestamp to its window, clamping timestamps
// outside [0, End) into the boundary windows: commands can carry issue
// cycles slightly past the run end (in-flight at cutoff) and belong to
// the final window by construction. TestSinkAndProbeDoNotAllocate holds
// it allocation-free.
func (r *Recorder) windowOf(t dram.Cycle) int {
	if t < 0 {
		return 0
	}
	if t >= r.cfg.End {
		return r.nWin - 1
	}
	return int(t / r.cfg.Window)
}

// fold adds mul per cycle of [from, to) to the windowed series dst,
// splitting the span across the windows it straddles. Cycles past the
// run end are added to the final window (in flight at cutoff), the
// same rule windowOf applies to point events.
// TestSinkAndProbeDoNotAllocate holds it allocation-free.
func (r *Recorder) fold(dst []uint64, from, to dram.Cycle, mul uint64) {
	if from >= to || mul == 0 {
		return
	}
	if to > r.cfg.End {
		dst[r.nWin-1] += mul * uint64(to-max(from, r.cfg.End))
		to = r.cfg.End
	}
	for t := from; t < to; {
		w := int(t / r.cfg.Window)
		end := min((dram.Cycle(w)+1)*r.cfg.Window, to)
		dst[w] += mul * uint64(end-t)
		t = end
	}
}

// catchUpOcc advances channel c's queue integrator to cycle t (clamped
// monotone and into [., End]: queue time past the run end is not part
// of the run).
func (r *Recorder) catchUpOcc(c *chanAcc, t dram.Cycle) {
	t = min(t, r.cfg.End)
	if t <= c.occAt {
		return
	}
	r.fold(c.queueOcc, c.occAt, t, uint64(c.demandLevel))
	r.fold(c.injQueueOcc, c.occAt, t, uint64(c.injLevel))
	c.occAt = t
}

// --- rh.Sink wiring ---

type chanSink struct {
	r  *Recorder
	ch int
}

// Sink returns the rh.Sink folding channel ch's events: serve and
// block events into the Attribution's blame (attribution runs), every
// other kind into the Series (windowed runs). Compose it with other
// sinks (e.g. the security oracle) via rh.Tee.
func (r *Recorder) Sink(ch int) rh.Sink { return &chanSink{r: r, ch: ch} }

// Event folds one controller event; it runs once per ACT, per serve and
// per queue change, so it must stay allocation-free
// (TestSinkAndProbeDoNotAllocate).
func (s *chanSink) Event(e rh.Event) {
	r, c := s.r, &s.r.channels[s.ch]
	switch e.Kind {
	case rh.EvServe:
		if c.banks != nil {
			r.serve(c, e)
		}
	case rh.EvBlock:
		if c.banks != nil {
			led := &c.banks[e.Bank]
			led.prune(c.floor)
			led.claim(e.At, e.Until, blockCauses[e.Cause], int16(e.Core))
		}
	default:
		if r.nWin > 0 {
			r.count(c, e)
		}
	}
}

// count folds one of the Series' event kinds.
func (r *Recorder) count(c *chanAcc, e rh.Event) {
	switch e.Kind {
	case rh.EvACT:
		w := r.windowOf(e.At)
		if e.Injected {
			c.injACT[w]++
			r.totals.InjACT++
		} else {
			c.demandACT[w]++
			r.totals.DemandACT++
		}
	case rh.EvMitigation:
		w := r.windowOf(e.At)
		switch e.Action {
		case rh.RefreshVictimsRFMsb:
			c.rfmsb[w]++
			r.totals.RFMsb++
		case rh.RefreshVictimsDRFMsb:
			c.drfmsb[w]++
			r.totals.DRFMsb++
		default:
			c.vrr[w]++
			r.totals.VRR++
		}
	case rh.EvRefresh:
		c.ref[r.windowOf(e.At)]++
		r.totals.REF++
	case rh.EvBulk:
		c.bulk[r.windowOf(e.At)]++
		r.totals.Bulk++
	case rh.EvQueue:
		r.catchUpOcc(c, e.At)
		c.demandLevel, c.injLevel = e.Demand, e.InjectedQueue
	case rh.EvTable:
		w := r.windowOf(e.At)
		c.hasTable = true
		c.tableSeen[w] = true
		c.tableUsed[w] = e.Table.Used
		c.tableResets[w] = e.Table.Resets
		c.tableCap = e.Table.Capacity
	}
}

// --- CoreProbe wiring ---

type coreProbe struct {
	r    *Recorder
	core int
}

// CoreProbe returns the probe folding core i's retirement segments
// into the Series (windowed runs only).
func (r *Recorder) CoreProbe(core int) CoreProbe { return &coreProbe{r: r, core: core} }

// CoreSegment folds one retirement segment; the event engine calls it
// per dispatch burst, so it stays allocation-free
// (TestSinkAndProbeDoNotAllocate).
func (p *coreProbe) CoreSegment(from, to dram.Cycle, retired uint64, dispCycles dram.Cycle, bp bool) {
	if from >= to {
		return
	}
	r, c := p.r, &p.r.cores[p.core]
	stallFrom := from + dispCycles
	r.fold(c.retired, from, to, retired/uint64(to-from)) // contract: uniform, exactly divisible
	r.fold(c.stalls, stallFrom, to, 1)
	if c.stallROB != nil {
		if bp {
			r.fold(c.stallBP, stallFrom, to, 1)
		} else {
			r.fold(c.stallROB, stallFrom, to, 1)
		}
	}
	r.totals.Retired += retired
	r.totals.Stalls += uint64(to - stallFrom)
}

// Finish closes the queue integrators at the run end and assembles the
// run's Series (nil without a window) and Attribution (nil without
// attribution). cpi supplies the cores' CPI stacks, each read from
// cpu.Core.CPI (nil leaves them zero). Finish attaches the windowed
// blame to the Series and checks both: Attribution.Validate,
// Attribution.CheckSeries and Series.Validate. Call exactly once, after
// the last event.
func (r *Recorder) Finish(cpi []CPIStack) (*Series, *Attribution, error) {
	if r.finished {
		panic("telemetry: Recorder.Finish called twice")
	}
	r.finished = true

	var s *Series
	if r.nWin > 0 {
		s = r.series()
	}
	var a *Attribution
	if r.cfg.Attribution {
		if cpi != nil && len(cpi) != len(r.cores) {
			return nil, nil, fmt.Errorf("telemetry: %d CPI stacks for %d cores", len(cpi), len(r.cores))
		}
		a = &Attribution{
			Cores:  make([]CoreAttribution, len(r.cores)),
			Matrix: make([][]uint64, len(r.cores)),
		}
		for i := range r.cores {
			c := &r.cores[i]
			a.Cores[i].Mem = c.blame.toMemBlame()
			a.Matrix[i] = c.matrix
			if cpi != nil {
				a.Cores[i].CPI = cpi[i]
			}
		}
		if err := a.Validate(); err != nil {
			return nil, nil, err
		}
		if s != nil {
			s.Blame = make([]BlameSeries, len(r.cores))
			for i := range r.cores {
				w := &r.cores[i].blameWin
				s.Blame[i] = BlameSeries{
					Intrinsic:   w[bucketIntrinsic],
					Conflict:    w[bucketConflict],
					QueueDemand: w[bucketQueueDemand],
					Inject:      w[bucketInject],
					Mitigation:  w[bucketMitigation],
					REF:         w[bucketREF],
					Bulk:        w[bucketBulk],
					Throttle:    w[bucketThrottle],
					Sched:       w[bucketSched],
				}
			}
			if err := a.CheckSeries(s); err != nil {
				return nil, nil, err
			}
		}
	}
	if s != nil {
		if err := s.Validate(); err != nil {
			return nil, nil, err
		}
	}
	return s, a, nil
}

// series assembles the windowed Series.
func (r *Recorder) series() *Series {
	s := &Series{
		Window: r.cfg.Window,
		Cycles: r.cfg.End,
		Warmup: r.cfg.Warmup,
		Totals: r.totals,
	}
	s.Cores = make([]CoreSeries, len(r.cores))
	for i := range r.cores {
		c := &r.cores[i]
		ipc := make([]float64, r.nWin)
		for w := range ipc {
			ipc[w] = float64(c.retired[w]) / float64(s.WindowLen(w))
		}
		s.Cores[i] = CoreSeries{
			Retired: c.retired, Stalls: c.stalls, IPC: ipc,
			StallROB: c.stallROB, StallBP: c.stallBP,
		}
	}
	s.Channels = make([]ChannelSeries, len(r.channels))
	for i := range r.channels {
		c := &r.channels[i]
		r.catchUpOcc(c, r.cfg.End)
		cs := ChannelSeries{
			DemandACT:         c.demandACT,
			InjACT:            c.injACT,
			VRR:               c.vrr,
			RFMsb:             c.rfmsb,
			DRFMsb:            c.drfmsb,
			Bulk:              c.bulk,
			REF:               c.ref,
			QueueOccCycles:    c.queueOcc,
			InjQueueOccCycles: c.injQueueOcc,
		}
		if c.hasTable {
			// Forward-fill: each window reports the last sample at or
			// before it; windows before the first sample report -1.
			used, resets := -1, uint64(0)
			filledUsed := make([]int, r.nWin)
			filledResets := make([]uint64, r.nWin)
			for w := 0; w < r.nWin; w++ {
				if c.tableSeen[w] {
					used, resets = c.tableUsed[w], c.tableResets[w]
				}
				filledUsed[w] = used
				filledResets[w] = resets
			}
			cs.TableUsed = filledUsed
			cs.TableResets = filledResets
			cs.TableCap = c.tableCap
		}
		s.Channels[i] = cs
	}
	return s
}
