package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dapper/internal/rh"
)

func renderFixture(t *testing.T) *Series {
	t.Helper()
	rec, err := NewRecorder(Config{
		Cores: 1, Channels: 1, Window: 10, End: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := rec.Sink(0)
	sink.Event(rh.Event{Kind: rh.EvACT, At: 3})
	sink.Event(rh.Event{Kind: rh.EvMitigation, At: 12, Action: rh.RefreshVictims, Row: 1})
	sink.Event(rh.Event{Kind: rh.EvTable, At: 5, Table: rh.TableOccupancy{Used: 2, Capacity: 8}})
	rec.CoreProbe(0).CoreSegment(0, 25, 25, 20, false)
	s, _ := finish(t, rec)
	return s
}

func TestWriteSeriesJSONL(t *testing.T) {
	s := renderFixture(t)
	var buf bytes.Buffer
	if err := WriteSeriesJSONL(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != s.NumWindows() {
		t.Fatalf("got %d lines, want %d windows", len(lines), s.NumWindows())
	}
	var first struct {
		Type   string `json:"type"`
		Window int    `json:"window"`
		Start  int64
		End    int64
		Cores  []struct {
			IPC       float64 `json:"ipc"`
			StallFrac float64 `json:"stall_frac"`
		}
		Channels []struct {
			DemandACT uint64 `json:"demand_act"`
			TableUsed *int   `json:"table_used"`
		}
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first.Type != "window" || first.Window != 0 || first.End != 10 {
		t.Errorf("first window = %+v", first)
	}
	if first.Channels[0].DemandACT != 1 {
		t.Errorf("demand ACT in window 0 = %d, want 1", first.Channels[0].DemandACT)
	}
	if first.Channels[0].TableUsed == nil || *first.Channels[0].TableUsed != 2 {
		t.Errorf("table_used = %v, want 2", first.Channels[0].TableUsed)
	}
	if first.Cores[0].IPC != 1 {
		t.Errorf("core ipc = %g, want 1", first.Cores[0].IPC)
	}
	// Final window is the 5-cycle remainder [20,25): its stall fraction
	// divides by the short length, not the nominal width.
	var last struct{ Start, End int64 }
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Start != 20 || last.End != 25 {
		t.Errorf("last window bounds = %d..%d, want 20..25", last.Start, last.End)
	}
}

func TestRenderOmitsTableColumnsWithoutReporter(t *testing.T) {
	rec, err := NewRecorder(Config{Cores: 1, Channels: 1, Window: 10, End: 20})
	if err != nil {
		t.Fatal(err)
	}
	rec.CoreProbe(0).CoreSegment(0, 20, 20, 20, false)
	s, _ := finish(t, rec)
	var buf bytes.Buffer
	if err := WriteSeriesJSONL(&buf, s, nil); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"table_used", "stall_rob", "intrinsic"} {
		if strings.Contains(buf.String(), field) {
			t.Errorf("JSONL must omit %s fields when nothing reports them", field)
		}
	}
}
