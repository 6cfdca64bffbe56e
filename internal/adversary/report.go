package adversary

import (
	"encoding/json"
	"fmt"
	"io"

	"dapper/internal/attack"
	"dapper/internal/dram"
)

// Candidate identifies one evaluated attack: a label for the search
// trace ("kind:refresh", "rand-9", "climb-3"), the attack-space point,
// and — for points inside the projected search space — its vector.
type Candidate struct {
	Label     string        `json:"label"`
	Params    attack.Params `json:"params"`
	Canonical string        `json:"canonical"`
	Vector    Vector        `json:"vector,omitempty"`
}

// Eval is one completed evaluation: a candidate at a measurement
// horizon, with the observed benign-core damage. Slowdown is the
// paper's Figures 1/3 metric inverted: benign IPC under the insecure
// idle-companion baseline divided by benign IPC under (tracker,
// attack) — 1.0 means the attack cost nothing, 2.0 means benign cores
// run at half speed.
type Eval struct {
	Candidate
	Rung     int        `json:"rung"`
	Measure  dram.Cycle `json:"measure"`
	NormPerf float64    `json:"norm_perf"`
	Slowdown float64    `json:"slowdown"`
	// Escapes and MaxCount carry the shadow oracle's verdict when the
	// search ran under ObjectiveEscapes (zero otherwise: perf-objective
	// evaluations are unaudited).
	Escapes  uint64 `json:"escapes,omitempty"`
	MaxCount uint32 `json:"max_count,omitempty"`
	// BlameMitigation and BlameInject carry the benign cores' wait
	// cycles charged to mitigation blocks and tracker-injected traffic
	// when the run collected slowdown attribution (zero otherwise) —
	// they say whether a found slowdown flows through the defense
	// itself or through plain bandwidth contention.
	BlameMitigation uint64 `json:"blame_mitigation,omitempty"`
	BlameInject     uint64 `json:"blame_inject,omitempty"`
}

// Report is the resilience report for one tracker: the worst-found
// attack, the hand-crafted reference it is judged against, and the full
// search trace. All fields are deterministic for a (seed, budget) pair
// — no wall-clock anywhere — so two identical runs serialize to
// identical bytes.
type Report struct {
	Tracker     string `json:"tracker"`      // batch id ("hydra")
	TrackerName string `json:"tracker_name"` // display name ("Hydra")
	Workload    string `json:"workload"`
	NRH         uint32 `json:"nrh"`
	Profile     string `json:"profile"`
	Seed        uint64 `json:"seed"`
	Budget      int    `json:"budget"`
	// Objective is what the search maximized ("perf" or "escapes").
	Objective string `json:"objective,omitempty"`
	// Evals counts candidate evaluations charged against the budget;
	// BaselineRuns the insecure-reference submissions outside it (the
	// pool deduplicates repeats, so most are free).
	Evals        int `json:"evals"`
	BaselineRuns int `json:"baseline_runs"`

	// Reference is the hand-crafted attack.ForTracker pattern at the
	// full horizon; Best the worst-found attack. Best.Slowdown >=
	// Reference.Slowdown always holds: the reference is itself a
	// candidate of the final rung.
	Reference Eval `json:"reference"`
	Best      Eval `json:"best"`
	// Gain is Best.Slowdown / Reference.Slowdown under the perf
	// objective; zero under the escapes objective, where Best is ranked
	// by the oracle verdict and a slowdown ratio would mislead.
	Gain float64 `json:"gain,omitempty"`

	Trace []Eval `json:"trace,omitempty"`
}

// WriteJSONL streams the report as JSON lines: one "eval" line per
// trace entry in evaluation order, then one "summary" line without the
// trace. The format matches the harness records' one-object-per-line
// convention so the same tooling consumes both.
func (r *Report) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range r.Trace {
		line := struct {
			Type    string `json:"type"`
			Tracker string `json:"tracker"`
			Eval
		}{"eval", r.Tracker, r.Trace[i]}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	summary := *r
	summary.Trace = nil
	return enc.Encode(struct {
		Type string `json:"type"`
		Report
	}{"summary", summary})
}

// Summary returns the one-line human-readable verdict.
func (r *Report) Summary() string {
	if r.Objective == string(ObjectiveEscapes) {
		verdict := fmt.Sprintf("0 escapes, max count %d", r.Best.MaxCount)
		if r.Best.Escapes > 0 {
			verdict = fmt.Sprintf("%d ESCAPES (%s)", r.Best.Escapes, r.Best.Label)
		}
		return fmt.Sprintf("%-12s escape search: %s [%d evals]",
			r.TrackerName, verdict, r.Evals)
	}
	return fmt.Sprintf("%-12s worst-found %s (%s) vs hand-crafted %s (%s): %+.1f%% [%d evals]",
		r.TrackerName, fmtSlowdown(r.Best.Slowdown), r.Best.Label,
		fmtSlowdown(r.Reference.Slowdown), r.Reference.Label,
		(r.Gain-1)*100, r.Evals)
}

// fmtSlowdown renders the floored starvation ceiling as a word instead
// of a 1e9 ratio.
func fmtSlowdown(s float64) string {
	if s >= 1e9 {
		return "starved"
	}
	return fmt.Sprintf("%.3fx", s)
}
