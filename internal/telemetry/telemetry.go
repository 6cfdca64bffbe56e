// Package telemetry is the observability layer of the reproduction, at
// two levels.
//
// In-sim (deterministic): one Recorder folds the controller's rh.Sink
// event stream (teed with the security oracle) plus the CoreProbe hook
// on cpu.Core into two results embedded in sim.Result. The Series is a
// cycle-windowed sample of the simulated system's dynamics — per-core
// retirement and stall cycles, per-channel demand vs injected
// activation rates, mitigation commands by kind, controller queue
// occupancy, and tracker table occupancy — in fixed-width windows. The
// Attribution (attribution.go) says why cores lost cycles: CPI stacks
// and the per-core memory blame of every demand read. One window grid
// and one interval fold serve both, and one Finish assembles and
// checks them. The fold is exact under time-skip: components report
// increments at event boundaries (every state change is an event in
// both engines), and the Recorder closes windows by cycle arithmetic,
// so the event and cycle engines produce byte-identical results and
// two runs with the same seed and configuration are byte-identical too.
//
// Harness level (wall-clock): a Tracer records per-job spans (queue
// wait, execution on a worker lane, cache hits) from internal/harness
// and exports them as Chrome trace-event JSON, viewable in Perfetto
// (https://ui.perfetto.dev) with one lane per worker. Span recording
// never perturbs result content or record order; the export is sorted
// so equal span sets serialize identically.
package telemetry

import (
	"fmt"

	"dapper/internal/dram"
)

// CoreProbe receives one core's retirement progress as exact segments.
type CoreProbe interface {
	// CoreSegment covers the half-open cycle range [from, to):
	// retired instructions are distributed uniformly across the range
	// (retired must be divisible by to-from), and the first dispCycles
	// cycles dispatched at least one instruction while the remaining
	// to-from-dispCycles cycles stalled. bp classifies the stalled
	// cycles: true when the core was retrying a memory access the
	// hierarchy refused (backpressure), false for ROB-full /
	// head-of-ROB waits — a segment never mixes the two (the core's
	// fold boundaries split exactly on that state change). The
	// per-cycle driver emits single-cycle segments; the event engine's
	// O(1) catch-up folds emit multi-cycle segments with identical
	// per-cycle semantics, which is what makes the windowed fold
	// byte-identical across engines.
	CoreSegment(from, to dram.Cycle, retired uint64, dispCycles dram.Cycle, bp bool)
}

// Totals are grand-total event counts accumulated independently of the
// window fold. They double as the conservation oracle: the sum of every
// windowed series must equal its total exactly (Series.Validate), and
// sim.Run cross-checks them against the final DRAM command counters, so
// a fold that drops or double-counts an event fails the run instead of
// skewing a figure.
type Totals struct {
	DemandACT uint64 `json:"demand_act"`
	InjACT    uint64 `json:"inj_act"`
	VRR       uint64 `json:"vrr"`
	RFMsb     uint64 `json:"rfmsb"`
	DRFMsb    uint64 `json:"drfmsb"`
	Bulk      uint64 `json:"bulk"`
	REF       uint64 `json:"ref"`
	Retired   uint64 `json:"retired"`
	Stalls    uint64 `json:"stalls"`
}

// CoreSeries is one core's per-window time-series.
type CoreSeries struct {
	// Retired is the number of instructions retired in each window.
	Retired []uint64 `json:"retired"`
	// Stalls is the number of cycles in each window on which the core
	// dispatched nothing (ROB full, memory backpressure, or head-of-ROB
	// wait) — StallROB + StallBP of cpu.Core.CPI.
	Stalls []uint64 `json:"stalls"`
	// IPC is Retired over the window length, precomputed for plotting.
	IPC []float64 `json:"ipc"`
	// StallROB / StallBP split Stalls into ROB-full (or head-of-ROB)
	// waits vs memory-backpressure retries. Present only when the run
	// also collected attribution (Config.Attribution); per window,
	// StallROB + StallBP == Stalls exactly.
	StallROB []uint64 `json:"stall_rob,omitempty"`
	StallBP  []uint64 `json:"stall_bp,omitempty"`
}

// ChannelSeries is one memory channel's per-window time-series.
type ChannelSeries struct {
	// DemandACT / InjACT split row activations into demand traffic and
	// tracker-injected counter traffic.
	DemandACT []uint64 `json:"demand_act"`
	InjACT    []uint64 `json:"inj_act"`
	// Mitigation commands by kind, matching dram.Counters: VRR covers
	// both blast radii.
	VRR    []uint64 `json:"vrr"`
	RFMsb  []uint64 `json:"rfmsb"`
	DRFMsb []uint64 `json:"drfmsb"`
	// Bulk counts whole-rank structure-reset sweeps.
	Bulk []uint64 `json:"bulk"`
	// REF counts per-rank auto-refreshes.
	REF []uint64 `json:"ref"`
	// QueueOccCycles / InjQueueOccCycles integrate queue population over
	// time: the sum over the window of queue length per cycle. Divide by
	// the window length for the average occupancy.
	QueueOccCycles    []uint64 `json:"queue_occ_cycles"`
	InjQueueOccCycles []uint64 `json:"inj_queue_occ_cycles"`
	// TableUsed is the tracker's counting-table occupancy at the last
	// sample in or before each window (-1 before the first sample, and
	// the whole block is omitted when the tracker exposes no table).
	TableUsed []int `json:"table_used,omitempty"`
	// TableResets is the tracker's cumulative reset count at the same
	// sample points (monotone non-decreasing).
	TableResets []uint64 `json:"table_resets,omitempty"`
	// TableCap is the table capacity (constant per run).
	TableCap int `json:"table_cap,omitempty"`
}

// Series is the windowed time-series of one run. Windows are anchored
// at cycle 0 and cover the whole run (warmup included — the transient
// is part of the dynamics); the final window may be short, and events
// timestamped past the run end (commands still in flight) fold into it.
// Slice the windows at Warmup to recover the measured span.
type Series struct {
	// Window is the fold width in DRAM cycles.
	Window dram.Cycle `json:"window"`
	// Cycles is the total run length (warmup + measure).
	Cycles dram.Cycle `json:"cycles"`
	// Warmup is the warmup length; window index Warmup/Window is the
	// first window touching the measured span.
	Warmup dram.Cycle `json:"warmup"`

	Cores    []CoreSeries    `json:"cores"`
	Channels []ChannelSeries `json:"channels"`
	Totals   Totals          `json:"totals"`

	// Blame is the per-core windowed memory-blame series, present only
	// on runs collecting attribution alongside telemetry. Window sums
	// equal the Attribution grand totals (Attribution.CheckSeries).
	Blame []BlameSeries `json:"blame,omitempty"`
}

// NumWindows returns the number of windows covering [0, Cycles).
func (s *Series) NumWindows() int {
	if s.Window <= 0 {
		return 0
	}
	return int((s.Cycles + s.Window - 1) / s.Window)
}

// WindowStart returns window i's first cycle.
func (s *Series) WindowStart(i int) dram.Cycle { return dram.Cycle(i) * s.Window }

// WindowLen returns window i's length in cycles (the final window may
// be truncated by the run end).
func (s *Series) WindowLen(i int) dram.Cycle {
	start := s.WindowStart(i)
	if start+s.Window > s.Cycles {
		return s.Cycles - start
	}
	return s.Window
}

// sumU adds up a windowed series.
func sumU(v []uint64) uint64 {
	var t uint64
	for _, x := range v {
		t += x
	}
	return t
}

// Validate checks the Series' structural invariants: every windowed
// slice spans the same monotone window grid, and each series conserves
// its independently accumulated grand total (the fold neither dropped
// nor double-counted an event). It is cheap enough to run on every
// record (-check in the cmds).
func (s *Series) Validate() error {
	if s.Window <= 0 {
		return fmt.Errorf("telemetry: non-positive window %d", s.Window)
	}
	if s.Cycles <= 0 || s.Warmup < 0 || s.Warmup >= s.Cycles {
		return fmt.Errorf("telemetry: bad span warmup=%d cycles=%d", s.Warmup, s.Cycles)
	}
	n := s.NumWindows()
	if n == 0 {
		return fmt.Errorf("telemetry: no windows")
	}
	var total dram.Cycle
	for i := 0; i < n; i++ {
		l := s.WindowLen(i)
		if l <= 0 {
			return fmt.Errorf("telemetry: window %d has non-positive length %d", i, l)
		}
		total += l
	}
	if total != s.Cycles {
		return fmt.Errorf("telemetry: windows cover %d cycles, run has %d", total, s.Cycles)
	}

	var retired, stalls uint64
	for i, c := range s.Cores {
		if len(c.Retired) != n || len(c.Stalls) != n || len(c.IPC) != n {
			return fmt.Errorf("telemetry: core %d series length mismatch (want %d windows)", i, n)
		}
		for w := 0; w < n; w++ {
			if s.WindowLen(w) > 0 && uint64(s.WindowLen(w)) < c.Stalls[w] {
				return fmt.Errorf("telemetry: core %d window %d stalls %d exceed window length %d",
					i, w, c.Stalls[w], s.WindowLen(w))
			}
		}
		if (c.StallROB == nil) != (c.StallBP == nil) {
			return fmt.Errorf("telemetry: core %d has only one of the stall-split series", i)
		}
		if c.StallROB != nil {
			if len(c.StallROB) != n || len(c.StallBP) != n {
				return fmt.Errorf("telemetry: core %d stall-split series length mismatch (want %d windows)", i, n)
			}
			for w := 0; w < n; w++ {
				if c.StallROB[w]+c.StallBP[w] != c.Stalls[w] {
					return fmt.Errorf("telemetry: core %d window %d stall split %d+%d != stalls %d",
						i, w, c.StallROB[w], c.StallBP[w], c.Stalls[w])
				}
			}
		}
		retired += sumU(c.Retired)
		stalls += sumU(c.Stalls)
	}
	if retired != s.Totals.Retired {
		return fmt.Errorf("telemetry: retired windows sum %d != total %d", retired, s.Totals.Retired)
	}
	if stalls != s.Totals.Stalls {
		return fmt.Errorf("telemetry: stall windows sum %d != total %d", stalls, s.Totals.Stalls)
	}

	sums := Totals{}
	for i, ch := range s.Channels {
		// An ordered pair list, not a map literal: which length mismatch a
		// caller hears about first must not depend on randomized map
		// iteration order (failure messages are diffed in golden tests).
		for _, f := range []struct {
			name string
			sl   []uint64
		}{
			{"demand_act", ch.DemandACT}, {"inj_act", ch.InjACT},
			{"vrr", ch.VRR}, {"rfmsb", ch.RFMsb}, {"drfmsb", ch.DRFMsb},
			{"bulk", ch.Bulk}, {"ref", ch.REF},
			{"queue_occ_cycles", ch.QueueOccCycles}, {"inj_queue_occ_cycles", ch.InjQueueOccCycles},
		} {
			if len(f.sl) != n {
				return fmt.Errorf("telemetry: channel %d %s has %d windows, want %d", i, f.name, len(f.sl), n)
			}
		}
		if ch.TableUsed != nil {
			if len(ch.TableUsed) != n || len(ch.TableResets) != n {
				return fmt.Errorf("telemetry: channel %d table series length mismatch", i)
			}
			last := uint64(0)
			for w, r := range ch.TableResets {
				if r < last {
					return fmt.Errorf("telemetry: channel %d table resets not monotone at window %d", i, w)
				}
				last = r
				if ch.TableUsed[w] > ch.TableCap {
					return fmt.Errorf("telemetry: channel %d window %d table used %d exceeds capacity %d",
						i, w, ch.TableUsed[w], ch.TableCap)
				}
			}
		}
		sums.DemandACT += sumU(ch.DemandACT)
		sums.InjACT += sumU(ch.InjACT)
		sums.VRR += sumU(ch.VRR)
		sums.RFMsb += sumU(ch.RFMsb)
		sums.DRFMsb += sumU(ch.DRFMsb)
		sums.Bulk += sumU(ch.Bulk)
		sums.REF += sumU(ch.REF)
	}
	sums.Retired, sums.Stalls = s.Totals.Retired, s.Totals.Stalls
	if sums != s.Totals {
		return fmt.Errorf("telemetry: channel windows sums %+v != totals %+v", sums, s.Totals)
	}

	if s.Blame != nil {
		if len(s.Blame) != len(s.Cores) {
			return fmt.Errorf("telemetry: %d blame series for %d cores", len(s.Blame), len(s.Cores))
		}
		for i := range s.Blame {
			for b, sl := range s.Blame[i].bucketSlices() {
				if len(sl) != n {
					return fmt.Errorf("telemetry: core %d blame %s has %d windows, want %d",
						i, BlameBucketNames[b], len(sl), n)
				}
			}
		}
	}
	return nil
}
