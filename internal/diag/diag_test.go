package diag

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"dapper/internal/harness"
)

// noStats is an idle pool's stats function.
func noStats() harness.Stats { return harness.Stats{} }

func TestServeExposesHarnessVarsAndPprof(t *testing.T) {
	stats := harness.Stats{Submitted: 5, Unique: 4, Ran: 3, Inflight: 2}
	srv, err := Serve("localhost:0", func() harness.Stats { return stats })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()
	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	raw, ok := vars["harness"]
	if !ok {
		t.Fatalf("/debug/vars missing \"harness\": %s", body)
	}
	var got harness.Stats
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Submitted != 5 || got.Inflight != 2 {
		t.Fatalf("harness expvar = %+v, want the live stats", got)
	}

	resp, err = http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(idx), "goroutine") {
		t.Fatalf("pprof index: status %d, body %q", resp.StatusCode, idx[:min(len(idx), 120)])
	}

	// A second Serve must not panic on the duplicate expvar name — and
	// its stats function, not the first one's, must be the live one.
	stats2 := harness.Stats{Submitted: 42}
	srv2, err := Serve("localhost:0", func() harness.Stats { return stats2 })
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	resp, err = http.Get("http://" + srv2.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"Submitted": 42`) && !strings.Contains(string(body), `"Submitted":42`) {
		t.Fatalf("second Serve's stats not live on /debug/vars: %s", body)
	}
}

// TestServerCloseReleasesSocket pins the PR-10 leak fix: Serve used to
// abandon its listener until process exit, so a caller could
// never rebind. Close must free the port for an immediate re-listen.
func TestServerCloseReleasesSocket(t *testing.T) {
	srv, err := Serve("localhost:0", noStats)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// The exact address must be bindable again.
	srv2, err := Serve(addr, noStats)
	if err != nil {
		t.Fatalf("re-listen on %s after Close: %v", addr, err)
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
}
