package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// windowRow is the JSONL rendering of one window: everything a plotting
// script needs for one x-axis point, self-contained per line.
type windowRow struct {
	Type   string     `json:"type"` // "window"
	Window int        `json:"window"`
	Start  int64      `json:"start"`
	End    int64      `json:"end"`
	Cores  []coreCell `json:"cores"`
	Chans  []chanCell `json:"channels"`
}

type coreCell struct {
	IPC       float64 `json:"ipc"`
	Retired   uint64  `json:"retired"`
	StallFrac float64 `json:"stall_frac"`
	// *coreBlame is present only on runs that collected attribution;
	// its fields render inline.
	*coreBlame
}

// coreBlame is one core's window of the attribution lanes: the stall
// split and the memory-wait blame buckets (plus their window total).
type coreBlame struct {
	StallROB uint64 `json:"stall_rob"`
	StallBP  uint64 `json:"stall_bp"`
	MemBlame
}

type chanCell struct {
	DemandACT uint64 `json:"demand_act"`
	InjACT    uint64 `json:"inj_act"`
	VRR       uint64 `json:"vrr"`
	RFMsb     uint64 `json:"rfmsb"`
	DRFMsb    uint64 `json:"drfmsb"`
	Bulk      uint64 `json:"bulk"`
	REF       uint64 `json:"ref"`
	// QueueOcc is the mean demand-queue depth over the window
	// (occupancy cycle-integral / window length); InjQueueOcc likewise
	// for injected counter traffic.
	QueueOcc    float64 `json:"queue_occ"`
	InjQueueOcc float64 `json:"inj_queue_occ"`
	// TableUsed/TableResets are only present for trackers that report
	// table occupancy (-1 used = not yet sampled).
	TableUsed   *int    `json:"table_used,omitempty"`
	TableResets *uint64 `json:"table_resets,omitempty"`
}

// coreRow is the JSONL rendering of one core's whole-run
// attribution: the exact CPI stack next to the memory-blame breakdown.
type coreRow struct {
	Type string   `json:"type"` // "core"
	Core int      `json:"core"`
	CPI  CPIStack `json:"cpi"`
	Mem  MemBlame `json:"mem"`
}

// matrixRow is one victim row of the core→core blame matrix.
type matrixRow struct {
	Type     string   `json:"type"` // "matrix"
	Victim   int      `json:"victim"`
	Culprits []uint64 `json:"culprits"`
}

func (s *Series) row(w int) windowRow {
	wl := float64(s.WindowLen(w))
	r := windowRow{
		Type:   "window",
		Window: w,
		Start:  int64(s.WindowStart(w)),
		End:    int64(s.WindowStart(w) + s.WindowLen(w)),
	}
	for i, c := range s.Cores {
		cell := coreCell{
			IPC:       c.IPC[w],
			Retired:   c.Retired[w],
			StallFrac: float64(c.Stalls[w]) / wl,
		}
		if s.Blame != nil {
			var b blameBuckets
			for k, sl := range s.Blame[i].bucketSlices() {
				b[k] = sl[w]
			}
			cell.coreBlame = &coreBlame{StallROB: c.StallROB[w], StallBP: c.StallBP[w], MemBlame: b.toMemBlame()}
		}
		r.Cores = append(r.Cores, cell)
	}
	for _, ch := range s.Channels {
		cell := chanCell{
			DemandACT: ch.DemandACT[w], InjACT: ch.InjACT[w],
			VRR: ch.VRR[w], RFMsb: ch.RFMsb[w], DRFMsb: ch.DRFMsb[w],
			Bulk: ch.Bulk[w], REF: ch.REF[w],
			QueueOcc:    float64(ch.QueueOccCycles[w]) / wl,
			InjQueueOcc: float64(ch.InjQueueOccCycles[w]) / wl,
		}
		if ch.TableUsed != nil {
			u, n := ch.TableUsed[w], ch.TableResets[w]
			cell.TableUsed, cell.TableResets = &u, &n
		}
		r.Chans = append(r.Chans, cell)
	}
	return r
}

// WriteSeriesJSONL renders one run as typed JSON lines: one "window"
// line per window (the series cells, plus each core's stall split and
// blame buckets when the run collected attribution), then — when a is
// non-nil — one "core" line per core and one "matrix" line per victim
// row. Every line is self-contained, so `jq` and plotting scripts can
// stream it; the order is fixed, so two identical runs serialize to
// identical bytes.
func WriteSeriesJSONL(w io.Writer, s *Series, a *Attribution) error {
	enc := json.NewEncoder(w)
	for i := 0; i < s.NumWindows(); i++ {
		if err := enc.Encode(s.row(i)); err != nil {
			return err
		}
	}
	if a == nil {
		return nil
	}
	for i := range a.Cores {
		if err := enc.Encode(coreRow{Type: "core", Core: i, CPI: a.Cores[i].CPI, Mem: a.Cores[i].Mem}); err != nil {
			return err
		}
	}
	for v := range a.Matrix {
		if err := enc.Encode(matrixRow{Type: "matrix", Victim: v, Culprits: a.Matrix[v]}); err != nil {
			return err
		}
	}
	return nil
}

// blameBar renders a fixed-width proportional bar; deterministic for
// identical inputs (pure arithmetic, no wall-clock, no maps).
func blameBar(part, whole uint64, width int) string {
	if whole == 0 {
		return strings.Repeat(" ", width)
	}
	n := int((float64(part)/float64(whole))*float64(width) + 0.5)
	if n > width {
		n = width
	}
	return strings.Repeat("#", n) + strings.Repeat(" ", width-n)
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// RenderBlameASCII writes the human-oriented view: one CPI stack per
// core (dispatch / ROB-full-on-memory / backpressure shares of every
// simulated cycle, as labelled bars), the core's memory-wait blame
// breakdown, and the core→core blame matrix. labels optionally names
// each core (nil = bare indices). The output is deterministic.
func RenderBlameASCII(w io.Writer, a *Attribution, labels []string) error {
	const width = 40
	var b strings.Builder
	for i := range a.Cores {
		c := &a.Cores[i]
		if i < len(labels) && labels[i] != "" {
			fmt.Fprintf(&b, "core %d (%s) — %d cycles\n", i, labels[i], c.CPI.Cycles)
		} else {
			fmt.Fprintf(&b, "core %d — %d cycles\n", i, c.CPI.Cycles)
		}
		for _, part := range []struct {
			label string
			v     uint64
		}{
			{"dispatch ", c.CPI.Dispatch},
			{"stall.rob", c.CPI.StallROB},
			{"stall.bp ", c.CPI.StallBP},
		} {
			fmt.Fprintf(&b, "  %s %5.1f%% |%s| %d\n",
				part.label, pct(part.v, c.CPI.Cycles), blameBar(part.v, c.CPI.Cycles, width), part.v)
		}
		fmt.Fprintf(&b, "  mem wait blame (%d request-cycles):\n", c.Mem.Total)
		buckets := c.Mem.Buckets()
		for k, name := range BlameBucketNames {
			fmt.Fprintf(&b, "    %-12s %5.1f%% |%s| %d\n",
				name, pct(buckets[k], c.Mem.Total), blameBar(buckets[k], c.Mem.Total, width), buckets[k])
		}
	}
	fmt.Fprintf(&b, "blame matrix (victim row × culprit column, wait cycles):\n%12s", "")
	for c := range a.Matrix {
		fmt.Fprintf(&b, " %12s", fmt.Sprintf("core%d", c))
	}
	b.WriteString("\n")
	for v, row := range a.Matrix {
		fmt.Fprintf(&b, "%12s", fmt.Sprintf("core%d", v))
		for _, cell := range row {
			fmt.Fprintf(&b, " %12d", cell)
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
