package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dapper/internal/dram"
	"dapper/internal/sim"
	"dapper/internal/telemetry"
)

func statDesc(i int) Descriptor {
	return Descriptor{
		Tracker: "none", Mode: "VRR-BR1", Workload: fmt.Sprintf("w%d", i),
		Geometry: dram.Baseline(), Seed: uint64(i),
	}
}

// TestPoolStatsCounters exercises every Stats field: dedup, cache hits
// and misses, errors, and the per-job elapsed aggregation.
func TestPoolStatsCounters(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(Options{Workers: 2, Cache: cache})
	slow := func() (sim.Result, error) {
		time.Sleep(5 * time.Millisecond)
		return sim.Result{Cycles: 1}, nil
	}
	p.Submit(Job{Desc: statDesc(0), Run: slow})
	p.Submit(Job{Desc: statDesc(0), Run: slow}) // duplicate: dedup, no second run
	p.Submit(Job{Desc: statDesc(1), Run: slow})
	p.Submit(Job{Desc: statDesc(2), Run: func() (sim.Result, error) {
		return sim.Result{}, fmt.Errorf("boom")
	}})
	p.Wait()
	// Resubmit a completed descriptor through a fresh pool sharing the
	// cache: a pure cache hit.
	p2 := NewPool(Options{Workers: 2, Cache: cache})
	p2.Submit(Job{Desc: statDesc(1), Run: func() (sim.Result, error) {
		t.Error("cache hit must not run the job")
		return sim.Result{}, nil
	}})
	p2.Wait()

	s := p.Stats()
	if s.Submitted != 4 || s.Unique != 3 {
		t.Errorf("submitted/unique = %d/%d, want 4/3", s.Submitted, s.Unique)
	}
	if s.Ran != 2 || s.Errors != 1 {
		t.Errorf("ran/errors = %d/%d, want 2/1", s.Ran, s.Errors)
	}
	if s.CacheMisses != 3 || s.CacheHits != 0 {
		t.Errorf("cache misses/hits = %d/%d, want 3/0", s.CacheMisses, s.CacheHits)
	}
	if s.Inflight != 0 {
		t.Errorf("inflight = %d after Wait, want 0", s.Inflight)
	}
	if s.TotalElapsed < 10*time.Millisecond {
		t.Errorf("TotalElapsed = %v, want >= 10ms (two 5ms jobs)", s.TotalElapsed)
	}
	if s.MaxElapsed < 5*time.Millisecond || s.MaxElapsed > s.TotalElapsed {
		t.Errorf("MaxElapsed = %v out of range (total %v)", s.MaxElapsed, s.TotalElapsed)
	}

	s2 := p2.Stats()
	if s2.CacheHits != 1 || s2.CacheMisses != 0 || s2.Ran != 0 {
		t.Errorf("second pool hits/misses/ran = %d/%d/%d, want 1/0/0",
			s2.CacheHits, s2.CacheMisses, s2.Ran)
	}
	if s2.TotalElapsed != 0 {
		t.Errorf("cache hits must not contribute elapsed time, got %v", s2.TotalElapsed)
	}
}

// TestDescriptorTelemetryNoAliasing is the cache-aliasing regression
// guard for the telemetry window: a telemetry-on run embeds a Series in
// its Result, so it must never share a cache key with the telemetry-off
// run of the same configuration — nor with a different window width.
func TestDescriptorTelemetryNoAliasing(t *testing.T) {
	base := statDesc(0)
	on := base
	on.TelemetryWindow = dram.US(5)
	wide := base
	wide.TelemetryWindow = dram.US(50)
	keys := map[string]string{
		"off":  base.Key(),
		"on":   on.Key(),
		"wide": wide.Key(),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Fatalf("descriptors %q and %q alias cache key %s", prev, name, k)
		}
		seen[k] = name
	}
}

// TestPoolTraceExport runs a traced pool and checks the Chrome trace:
// lane metadata, one queue-wait + one run span per executed job on a
// worker lane, and a cache lane hit.
func TestPoolTraceExport(t *testing.T) {
	cache, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.NewTracer()
	p := NewPool(Options{Workers: 2, Cache: cache, Tracer: tracer})
	run := func() (sim.Result, error) { return sim.Result{Cycles: 7}, nil }
	p.Submit(Job{Desc: statDesc(0), Run: run})
	p.Submit(Job{Desc: statDesc(1), Run: run})
	p.Wait()
	// Same descriptor via the shared cache: a cache-lane span.
	p2 := NewPool(Options{Workers: 2, Cache: cache, Tracer: tracer})
	p2.Submit(Job{Desc: statDesc(0), Run: run})
	p2.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	counts := map[string]int{}
	laneNames := map[string]bool{}
	for _, e := range events {
		if e["ph"] == "M" {
			if args, ok := e["args"].(map[string]any); ok {
				laneNames[fmt.Sprint(args["name"])] = true
			}
			continue
		}
		counts[fmt.Sprint(e["cat"])]++
	}
	for _, want := range []string{"worker 0", "worker 1", "cache"} {
		if !laneNames[want] {
			t.Errorf("trace missing lane %q (have %v)", want, laneNames)
		}
	}
	if counts["run"] != 2 || counts["queue"] != 2 {
		t.Errorf("run/queue spans = %d/%d, want 2/2", counts["run"], counts["queue"])
	}
	if counts["cache"] != 1 {
		t.Errorf("cache spans = %d, want 1", counts["cache"])
	}
}

// TestWriteTelemetry checks the -telemetry dir/ exporter writes a
// parseable trace and the aggregate counters.
func TestWriteTelemetry(t *testing.T) {
	dir := t.TempDir()
	tracer := telemetry.NewTracer()
	tracer.SetLaneName(0, "worker 0")
	now := time.Now()
	tracer.Span(0, "job", "run", now, now.Add(time.Millisecond), nil)
	stats := Stats{Submitted: 3, Unique: 3, Ran: 1, Lockstep: 2, TotalElapsed: time.Second}
	if err := WriteTelemetry(filepath.Join(dir, "tel"), tracer, stats); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "tel", "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	craw, err := os.ReadFile(filepath.Join(dir, "tel", "counters.json"))
	if err != nil {
		t.Fatal(err)
	}
	var counters map[string]any
	if err := json.Unmarshal(craw, &counters); err != nil {
		t.Fatalf("counters.json: %v", err)
	}
	for _, key := range []string{"submitted", "unique", "ran", "lockstep", "cache_hits", "total_elapsed_sec"} {
		if _, ok := counters[key]; !ok {
			t.Errorf("counters.json missing %q: %s", key, craw)
		}
	}
	// A lockstep sweep's points are ran + lockstep + cache hits; the
	// file must account for the riders.
	if counters["ran"] != 1.0 || counters["lockstep"] != 2.0 {
		t.Errorf("counters.json ran/lockstep = %v/%v, want 1/2: %s", counters["ran"], counters["lockstep"], craw)
	}
	if !strings.Contains(string(raw), "worker 0") {
		t.Error("trace.json missing lane metadata")
	}
}
