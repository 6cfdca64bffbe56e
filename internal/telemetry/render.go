package telemetry

import (
	"fmt"
	"io"
	"strings"
)

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
