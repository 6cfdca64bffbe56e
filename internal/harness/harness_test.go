package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/sim"
)

func testDesc(workload string, nrh uint32) Descriptor {
	return Descriptor{
		Tracker:  "DAPPER-H",
		Mode:     "VRR-BR1",
		NRH:      nrh,
		Workload: workload,
		Attack:   "none",
		Benign4:  true,
		Geometry: dram.Baseline(),
		Warmup:   dram.US(5),
		Measure:  dram.US(30),
		Seed:     1,
	}
}

func testResult(v float64) sim.Result {
	return sim.Result{
		IPC:          []float64{v, v, v, v},
		Instructions: []uint64{100, 100, 100, 100},
		Cycles:       1000,
		LLCHitRate:   0.5,
		TrackerNames: []string{"DAPPER-H", "DAPPER-H"},
	}
}

func TestDescriptorKeyDeterministic(t *testing.T) {
	a, b := testDesc("429.mcf", 500), testDesc("429.mcf", 500)
	if a.Key() != b.Key() {
		t.Fatal("equal descriptors must hash equal")
	}
	if len(a.Key()) != 64 {
		t.Fatalf("key length = %d, want 64 hex chars", len(a.Key()))
	}
}

func TestDescriptorKeySensitivity(t *testing.T) {
	base := testDesc("429.mcf", 500)
	variants := map[string]Descriptor{}
	d := base
	d.Tracker = "Hydra"
	variants["tracker"] = d
	d = base
	d.Mode = "DRFMsb"
	variants["mode"] = d
	d = base
	d.NRH = 125
	variants["nrh"] = d
	d = base
	d.Workload = "462.libquantum"
	variants["workload"] = d
	d = base
	d.Attack = "refresh"
	variants["attack"] = d
	d = base
	d.Benign4 = false
	variants["benign4"] = d
	d = base
	d.Geometry.RowsPerBank = 2048
	variants["geometry"] = d
	d = base
	d.LLCBytes = 4 << 20
	variants["llc"] = d
	d = base
	d.Measure = dram.US(60)
	variants["measure"] = d
	d = base
	d.Seed = 2
	variants["seed"] = d
	d = base
	d.AttackParams = "s(r1...)"
	variants["attack_params"] = d

	seen := map[string]string{base.Key(): "base"}
	for name, v := range variants {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("changing %s collides with %s", name, prev)
		}
		seen[k] = name
	}
}

// TestDescriptorAttackParamsNoAliasing is the adversary-search cache
// regression: nearby points in the parametric attack space must never
// alias one cached result, and the canonical encoding must be the only
// thing distinguishing them.
func TestDescriptorAttackParamsNoAliasing(t *testing.T) {
	mk := func(p attack.Params) Descriptor {
		d := testDesc("429.mcf", 500)
		d.Attack = attack.Parametric.String()
		d.AttackParams = p.Canonical()
		return d
	}
	base := attack.Params{Steady: attack.Pattern{Rows: 384, Banks: 32, HotFrac: 0.5}}
	near := base
	near.Steady.Rows = 385
	frac := base
	frac.Steady.HotFrac = 0.5001
	phase := base
	phase.Period = 4096
	keys := map[string]string{}
	for name, p := range map[string]attack.Params{
		"base": base, "near": near, "frac": frac, "phase": phase,
	} {
		k := mk(p).Key()
		if prev, dup := keys[k]; dup {
			t.Fatalf("param vector %s aliases %s in the cache key", name, prev)
		}
		keys[k] = name
	}
	if mk(base).Key() != mk(base).Key() {
		t.Fatal("same param vector must key identically (cache reuse)")
	}
}

// TestCacheDiskRoundTrip: a miss, then a hit in the writing cache and
// in a fresh cache over the same directory; a directory is required.
func TestCacheDiskRoundTrip(t *testing.T) {
	if _, err := NewCache(""); err == nil || !strings.Contains(err.Error(), "directory is required") {
		t.Fatalf("NewCache(\"\") = %v, want a directory-required error", err)
	}
	dir := t.TempDir()
	key := testDesc("a", 500).Key()
	c1, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c1.Get(key); ok {
		t.Fatal("empty cache must miss")
	}
	if err := c1.Put(key, testResult(2.0)); err != nil {
		t.Fatal(err)
	}
	got, ok := c1.Get(key)
	if !ok || got.IPC[0] != 2.0 || got.Cycles != 1000 {
		t.Fatalf("round trip: ok=%v got=%+v", ok, got)
	}
	if st := c1.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	// A fresh cache over the same directory must see the result.
	c2, err := NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = c2.Get(key)
	if !ok || got.IPC[3] != 2.0 || got.TrackerNames[0] != "DAPPER-H" {
		t.Fatalf("disk round trip: ok=%v got=%+v", ok, got)
	}
}

func TestPoolDedupAndCache(t *testing.T) {
	cache, _ := NewCache(t.TempDir())
	pool := NewPool(Options{Workers: 4, Cache: cache})
	var runs atomic.Int64
	job := func() Job {
		return Job{Desc: testDesc("429.mcf", 500), Run: func() (sim.Result, error) {
			runs.Add(1)
			return testResult(1.0), nil
		}}
	}
	f1 := pool.Submit(job())
	f2 := pool.Submit(job())
	if f1 != f2 {
		t.Fatal("same descriptor must return the same future")
	}
	if _, err := f1.Wait(); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("ran %d times, want 1", runs.Load())
	}
	st := pool.Stats()
	if st.Submitted != 2 || st.Unique != 1 || st.Ran != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// A second pool over the same cache serves everything without
	// running.
	pool2 := NewPool(Options{Workers: 4, Cache: cache})
	f3 := pool2.Submit(job())
	if _, err := f3.Wait(); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 {
		t.Fatalf("cache-served job ran the simulation (%d runs)", runs.Load())
	}
	if !f3.Cached() {
		t.Fatal("future must report the cache hit")
	}
	if st := pool2.Stats(); st.CacheHits != 1 || st.Ran != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPoolParallelCompletes(t *testing.T) {
	pool := NewPool(Options{Workers: 8})
	const n = 32
	futures := make([]*Future, n)
	for i := 0; i < n; i++ {
		i := i
		futures[i] = pool.Submit(Job{
			Desc: testDesc(fmt.Sprintf("w%d", i), 500),
			Run: func() (sim.Result, error) {
				time.Sleep(time.Millisecond)
				return testResult(float64(i)), nil
			},
		})
	}
	for i, f := range futures {
		res, err := f.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.IPC[0] != float64(i) {
			t.Fatalf("job %d got result %v", i, res.IPC[0])
		}
	}
	if st := pool.Stats(); st.Ran != n {
		t.Fatalf("ran %d, want %d", st.Ran, n)
	}
}

func TestPoolErrorPropagation(t *testing.T) {
	pool := NewPool(Options{Workers: 2})
	f := pool.Submit(Job{Desc: testDesc("bad", 500), Run: func() (sim.Result, error) {
		return sim.Result{}, fmt.Errorf("boom")
	}})
	if _, err := f.Wait(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	if st := pool.Stats(); st.Errors != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRecordsOrderedAndWellFormed checks that Pool.Records hands back
// the records in submission order, whatever the completion order, and
// that WriteJSONL writes them one line each.
func TestRecordsOrderedAndWellFormed(t *testing.T) {
	pool := NewPool(Options{Workers: 4})
	// Submit in a fixed order but with reversed sleep times so
	// completion order differs from submission order.
	const n = 5
	for i := 0; i < n; i++ {
		i := i
		pool.Submit(Job{
			Desc: testDesc(fmt.Sprintf("w%d", i), 500),
			Run: func() (sim.Result, error) {
				time.Sleep(time.Duration(n-i) * time.Millisecond)
				return testResult(float64(i)), nil
			},
		})
	}
	recs := pool.Records()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		if want := fmt.Sprintf("w%d", i); r.Desc.Workload != want {
			t.Fatalf("record %d is %s, want %s (submission order)", i, r.Desc.Workload, want)
		}
	}
	var jsonl bytes.Buffer
	if err := WriteJSONL(&jsonl, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != n {
		t.Fatalf("jsonl has %d lines, want %d", len(lines), n)
	}
	var rec Record
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("jsonl line not parseable: %v", err)
	}
	if rec.Desc.Workload != "w0" || rec.Result.IPC[0] != 0 {
		t.Fatalf("jsonl first record = %+v", rec)
	}
}

func TestProgressCallback(t *testing.T) {
	var calls atomic.Int64
	var last atomic.Int64
	pool := NewPool(Options{Workers: 2, OnProgress: func(done, total int) {
		calls.Add(1)
		last.Store(int64(done))
	}})
	for i := 0; i < 4; i++ {
		i := i
		pool.Submit(Job{Desc: testDesc(fmt.Sprintf("p%d", i), 500), Run: func() (sim.Result, error) {
			return testResult(0), nil
		}})
	}
	pool.Wait()
	if calls.Load() != 4 || last.Load() != 4 {
		t.Fatalf("calls=%d last=%d, want 4/4", calls.Load(), last.Load())
	}
}
