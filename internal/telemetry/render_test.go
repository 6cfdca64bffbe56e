package telemetry

import (
	"encoding/json"
	"strings"
	"testing"

	"dapper/internal/rh"
)

// TestRenderOmitsTableColumnsWithoutReporter: a Series marshals the
// table-occupancy, stall-split and blame fields only when something
// reported them, so a run without a table-reporting tracker or without
// attribution carries none of them in its record.
func TestRenderOmitsTableColumnsWithoutReporter(t *testing.T) {
	marshal := func(table bool) string {
		t.Helper()
		rec, err := NewRecorder(Config{Cores: 1, Channels: 1, Window: 10, End: 20})
		if err != nil {
			t.Fatal(err)
		}
		if table {
			rec.Sink(0).Event(rh.Event{Kind: rh.EvTable, At: 5, Table: rh.TableOccupancy{Used: 2, Capacity: 8}})
		}
		rec.CoreProbe(0).CoreSegment(0, 20, 20, 20, false)
		s, _ := finish(t, rec)
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	bare := marshal(false)
	for _, field := range []string{"table_used", "table_resets", "table_cap", "stall_rob", "stall_bp", "blame", "intrinsic"} {
		if strings.Contains(bare, `"`+field+`"`) {
			t.Errorf("Series JSON must omit %s when nothing reports it:\n%s", field, bare)
		}
	}
	if reported := marshal(true); !strings.Contains(reported, `"table_used":[2,`) {
		t.Errorf("Series JSON lacks the reported table occupancy:\n%s", reported)
	}
}
