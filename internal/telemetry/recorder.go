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

// RecorderConfig sizes a Recorder for one run.
type RecorderConfig struct {
	Cores    int
	Channels int
	// Window is the fold width in DRAM cycles (must be positive).
	Window dram.Cycle
	// End is the run length in cycles (warmup + measure); windows are
	// anchored at cycle 0 and cover [0, End).
	End dram.Cycle
	// Warmup is recorded into the Series so consumers can slice off the
	// transient; it does not affect the fold.
	Warmup dram.Cycle
	// SplitStalls additionally folds the ROB-full vs backpressure stall
	// split (CoreSeries.StallROB/StallBP); on for attribution runs.
	SplitStalls bool
}

// Recorder folds the in-sim event stream into a windowed Series. It is
// wired per component: Sink(ch) attaches to channel ch's memory
// controller, CoreProbe(i) to core i. All methods are single-threaded
// (the simulator is), and every fold is plain cycle arithmetic on event
// timestamps — no wall clock, no sampling — so the result depends only
// on the event stream, which both engines emit identically.
type Recorder struct {
	cfg  RecorderConfig
	nWin int

	cores    []coreAcc
	channels []chanAcc
	totals   Totals

	finished bool
}

type coreAcc struct {
	retired  []uint64
	stalls   []uint64
	stallROB []uint64 // only when cfg.SplitStalls
	stallBP  []uint64
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
}

// NewRecorder builds a Recorder; it fails if the window grid would be
// degenerate or oversized.
func NewRecorder(cfg RecorderConfig) (*Recorder, error) {
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("telemetry: window must be positive, got %d", cfg.Window)
	}
	if cfg.End <= 0 {
		return nil, fmt.Errorf("telemetry: run length must be positive, got %d", cfg.End)
	}
	if cfg.Cores <= 0 || cfg.Channels <= 0 {
		return nil, fmt.Errorf("telemetry: need at least one core and channel (%d, %d)", cfg.Cores, cfg.Channels)
	}
	nWin := (cfg.End + cfg.Window - 1) / cfg.Window
	if nWin > MaxWindows {
		return nil, fmt.Errorf("telemetry: window %d yields %d windows over %d cycles (max %d); use a larger window",
			cfg.Window, nWin, cfg.End, MaxWindows)
	}
	r := &Recorder{cfg: cfg, nWin: int(nWin)}
	r.cores = make([]coreAcc, cfg.Cores)
	for i := range r.cores {
		r.cores[i] = coreAcc{
			retired: make([]uint64, nWin),
			stalls:  make([]uint64, nWin),
		}
		if cfg.SplitStalls {
			r.cores[i].stallROB = make([]uint64, nWin)
			r.cores[i].stallBP = make([]uint64, nWin)
		}
	}
	r.channels = make([]chanAcc, cfg.Channels)
	for i := range r.channels {
		r.channels[i] = chanAcc{
			demandACT:   make([]uint64, nWin),
			injACT:      make([]uint64, nWin),
			vrr:         make([]uint64, nWin),
			rfmsb:       make([]uint64, nWin),
			drfmsb:      make([]uint64, nWin),
			bulk:        make([]uint64, nWin),
			ref:         make([]uint64, nWin),
			queueOcc:    make([]uint64, nWin),
			injQueueOcc: make([]uint64, nWin),
			tableSeen:   make([]bool, nWin),
			tableUsed:   make([]int, nWin),
			tableResets: make([]uint64, nWin),
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

// addOcc integrates a constant queue level over [from, to), splitting
// the span across the windows it straddles. TestSinkAndProbeDoNotAllocate
// holds it allocation-free.
func (r *Recorder) addOcc(dst []uint64, from, to dram.Cycle, level int) {
	if level == 0 || from >= to {
		return
	}
	for t := from; t < to; {
		w := int(t / r.cfg.Window)
		end := (dram.Cycle(w) + 1) * r.cfg.Window
		if end > to {
			end = to
		}
		dst[w] += uint64(level) * uint64(end-t)
		t = end
	}
}

// catchUpOcc advances channel ch's queue integrator to cycle t (clamped
// monotone and into [., End]). TestSinkAndProbeDoNotAllocate holds it
// allocation-free.
func (r *Recorder) catchUpOcc(c *chanAcc, t dram.Cycle) {
	if t > r.cfg.End {
		t = r.cfg.End
	}
	if t <= c.occAt {
		return
	}
	r.addOcc(c.queueOcc, c.occAt, t, c.demandLevel)
	r.addOcc(c.injQueueOcc, c.occAt, t, c.injLevel)
	c.occAt = t
}

// --- rh.Sink wiring ---

type chanSink struct {
	r  *Recorder
	ch int
}

// Sink returns the rh.Sink folding channel ch's activations,
// mitigations, refreshes, sweeps, queue samples and table samples into
// the Series (serve and block events are the BlameRecorder's). Compose
// it with other sinks (e.g. the security oracle) via rh.Tee.
func (r *Recorder) Sink(ch int) rh.Sink { return &chanSink{r: r, ch: ch} }

// Event folds one controller event; it runs once per ACT and per queue
// change whenever telemetry is on, so it must stay allocation-free
// (TestSinkAndProbeDoNotAllocate).
func (s *chanSink) Event(e rh.Event) {
	r := s.r
	c := &r.channels[s.ch]
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

// CoreProbe returns the probe folding core i's retirement segments.
func (r *Recorder) CoreProbe(core int) CoreProbe { return &coreProbe{r: r, core: core} }

// CoreSegment folds one retirement segment; the event engine calls it
// per dispatch burst, so it stays allocation-free
// (TestSinkAndProbeDoNotAllocate).
func (p *coreProbe) CoreSegment(from, to dram.Cycle, retired uint64, dispCycles dram.Cycle, bp bool) {
	if from >= to {
		return
	}
	c := &p.r.cores[p.core]
	span := uint64(to - from)
	perCycle := retired / span // contract: uniform, exactly divisible
	stallFrom := from + dispCycles
	for t := from; t < to; {
		w := p.r.windowOf(t)
		end := (dram.Cycle(w) + 1) * p.r.cfg.Window
		if end > to {
			end = to
		}
		cycles := end - t
		c.retired[w] += perCycle * uint64(cycles)
		// Stalled cycles in this chunk: the overlap of [stallFrom, to)
		// with [t, end).
		sFrom := t
		if stallFrom > sFrom {
			sFrom = stallFrom
		}
		if end > sFrom {
			c.stalls[w] += uint64(end - sFrom)
			if c.stallROB != nil {
				if bp {
					c.stallBP[w] += uint64(end - sFrom)
				} else {
					c.stallROB[w] += uint64(end - sFrom)
				}
			}
		}
		t = end
	}
	p.r.totals.Retired += retired
	p.r.totals.Stalls += uint64((to - from) - dispCycles)
}

// Finish closes all integrators at the run end and assembles the
// Series. Call exactly once, after the last event.
func (r *Recorder) Finish() *Series {
	if r.finished {
		panic("telemetry: Recorder.Finish called twice")
	}
	r.finished = true

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
