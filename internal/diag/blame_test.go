package diag

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"

	"dapper/internal/harness"
	"dapper/internal/sim"
	"dapper/internal/telemetry"
)

// attributed builds a Result whose Attribution gives core i the CPI
// stack and blame buckets scaled by (i+1)*k.
func attributed(cores int, k uint64) sim.Result {
	a := &telemetry.Attribution{Cores: make([]telemetry.CoreAttribution, cores)}
	for i := range a.Cores {
		s := uint64(i+1) * k
		a.Cores[i] = telemetry.CoreAttribution{
			CPI: telemetry.CPIStack{Cycles: 10 * s, Dispatch: 6 * s, StallROB: 3 * s, StallBP: s},
			Mem: telemetry.MemBlame{Conflict: s, Inject: 2 * s, Mitigation: 3 * s, Throttle: 4 * s, Sched: 5 * s, Total: 15 * s},
		}
	}
	return sim.Result{Attribution: a}
}

// TestBlameAggSumsAttributedRuns: the aggregate counts every observed
// run, sums only the attributed ones core by core (growing to the
// widest run), and shows up as "blame" on /debug/vars once published.
func TestBlameAggSumsAttributedRuns(t *testing.T) {
	agg := NewBlameAgg()
	agg.Observe(harness.Descriptor{}, attributed(2, 1))
	agg.Observe(harness.Descriptor{}, sim.Result{})
	agg.Observe(harness.Descriptor{}, attributed(3, 10))

	want := []blameCoreVars{
		{Cycles: 110, Dispatch: 66, StallROB: 33, StallBP: 11, MemTotal: 165, Conflict: 11, Inject: 22, Mitigation: 33, Throttle: 44},
		{Cycles: 220, Dispatch: 132, StallROB: 66, StallBP: 22, MemTotal: 330, Conflict: 22, Inject: 44, Mitigation: 66, Throttle: 88},
		{Cycles: 300, Dispatch: 180, StallROB: 90, StallBP: 30, MemTotal: 450, Conflict: 30, Inject: 60, Mitigation: 90, Throttle: 120},
	}
	type snap struct {
		Runs     int             `json:"runs"`
		AttrRuns int             `json:"attr_runs"`
		Cores    []blameCoreVars `json:"cores"`
	}
	check := func(from string, raw []byte) {
		t.Helper()
		var got snap
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("%s: %v\n%s", from, err, raw)
		}
		if got.Runs != 3 || got.AttrRuns != 2 {
			t.Errorf("%s: runs %d, attr_runs %d; want 3 and 2", from, got.Runs, got.AttrRuns)
		}
		if !reflect.DeepEqual(got.Cores, want) {
			t.Errorf("%s: cores\n%+v\nwant\n%+v", from, got.Cores, want)
		}
	}
	raw, err := json.Marshal(agg.snapshot())
	if err != nil {
		t.Fatal(err)
	}
	check("snapshot", raw)

	agg.Publish()
	srv, err := Serve("127.0.0.1:0", noStats)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	blame, ok := vars["blame"]
	if !ok {
		t.Fatalf("/debug/vars has no \"blame\" after Publish: %s", body)
	}
	check("/debug/vars", blame)
}
