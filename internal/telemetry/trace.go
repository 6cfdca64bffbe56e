package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracer collects wall-clock spans from concurrent harness workers and
// exports them as Chrome trace-event JSON, viewable in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing with one lane per
// worker. Recording is mutex-buffered and touches nothing but the
// tracer itself, so attaching one never perturbs result content or
// sink ordering; the export sorts spans by (start, lane, name), making
// the serialization a pure function of the recorded span set.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	lanes map[int]string
	spans []traceSpan
}

type traceSpan struct {
	lane      int
	name, cat string
	start     time.Time
	dur       time.Duration
	args      map[string]string
}

// NewTracer starts a tracer; span timestamps are exported relative to
// this call.
//
//dapper:wallclock the tracer's whole job is recording wall-clock spans; traces are diagnostics, never inputs to Results or cache keys
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), lanes: make(map[int]string)}
}

// SetLaneName labels a lane (exported as the Chrome thread name, e.g.
// "worker 3", "cache", "sink").
func (t *Tracer) SetLaneName(lane int, name string) {
	t.mu.Lock()
	t.lanes[lane] = name
	t.mu.Unlock()
}

// Span records one completed span on a lane. args are optional
// key/value annotations shown in the viewer's detail pane.
func (t *Tracer) Span(lane int, name, cat string, start, end time.Time, args map[string]string) {
	t.mu.Lock()
	t.spans = append(t.spans, traceSpan{
		lane: lane, name: name, cat: cat,
		start: start, dur: end.Sub(start), args: args,
	})
	t.mu.Unlock()
}

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// array flavor; "X" = complete span, "M" = metadata).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"` // microseconds
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace serializes every recorded span, preceded by
// process/thread metadata, as a Chrome trace-event JSON array.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	t.mu.Lock()
	spans := make([]traceSpan, len(t.spans))
	copy(spans, t.spans)
	laneIDs := make([]int, 0, len(t.lanes))
	for id := range t.lanes {
		laneIDs = append(laneIDs, id)
	}
	epoch := t.epoch
	lanes := t.lanes
	t.mu.Unlock()

	sort.Ints(laneIDs)
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if !a.start.Equal(b.start) {
			return a.start.Before(b.start)
		}
		if a.lane != b.lane {
			return a.lane < b.lane
		}
		return a.name < b.name
	})

	events := make([]chromeEvent, 0, len(spans)+len(laneIDs)+1)
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]string{"name": "dapper harness"},
	})
	for _, id := range laneIDs {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: id,
			Args: map[string]string{"name": lanes[id]},
		})
	}
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.cat, Ph: "X",
			TS:  micros(s.start.Sub(epoch)),
			Dur: micros(s.dur),
			PID: 1, TID: s.lane,
			Args: s.args,
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// micros converts a duration to the trace format's microsecond unit,
// keeping sub-microsecond resolution as fractions.
func micros(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e3
}

// WriteCounterJSON writes a flat JSON object of named counters — the
// aggregate companion of a trace file (cache hit/miss totals, elapsed
// aggregates). Keys are sorted by encoding/json, so output is
// deterministic for a given counter set.
func WriteCounterJSON(w io.Writer, counters map[string]any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(counters); err != nil {
		return fmt.Errorf("telemetry: counters: %w", err)
	}
	return nil
}
