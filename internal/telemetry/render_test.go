package telemetry

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"dapper/internal/rh"
)

func renderFixture(t *testing.T) *Series {
	t.Helper()
	rec, err := NewRecorder(RecorderConfig{
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
	return rec.Finish()
}

func TestWriteSeriesJSONL(t *testing.T) {
	s := renderFixture(t)
	var buf bytes.Buffer
	if err := WriteSeriesJSONL(&buf, s); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != s.NumWindows() {
		t.Fatalf("got %d lines, want %d windows", len(lines), s.NumWindows())
	}
	var first struct {
		Window int `json:"window"`
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
	if first.Window != 0 || first.End != 10 {
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
}

func TestWriteSeriesCSV(t *testing.T) {
	s := renderFixture(t)
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != s.NumWindows()+1 {
		t.Fatalf("got %d rows, want header + %d windows", len(rows), s.NumWindows())
	}
	hdr := strings.Join(rows[0], ",")
	for _, col := range []string{"core0_ipc", "ch0_vrr", "ch0_table_used", "ch0_queue_occ"} {
		if !strings.Contains(hdr, col) {
			t.Errorf("header missing %s: %s", col, hdr)
		}
	}
	// Final window is the 5-cycle remainder [20,25): its stall fraction
	// divides by the short length, not the nominal width.
	last := rows[len(rows)-1]
	if last[1] != "20" || last[2] != "25" {
		t.Errorf("last window bounds = %s..%s, want 20..25", last[1], last[2])
	}
}

func TestRenderOmitsTableColumnsWithoutReporter(t *testing.T) {
	rec, err := NewRecorder(RecorderConfig{Cores: 1, Channels: 1, Window: 10, End: 20})
	if err != nil {
		t.Fatal(err)
	}
	rec.CoreProbe(0).CoreSegment(0, 20, 20, 20, false)
	s := rec.Finish()
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "table_used") {
		t.Error("CSV must omit table columns when no tracker reports occupancy")
	}
	buf.Reset()
	if err := WriteSeriesJSONL(&buf, s); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "table_used") {
		t.Error("JSONL must omit table fields when no tracker reports occupancy")
	}
}
