package exp

import (
	"strings"
	"testing"

	"dapper/internal/harness"
	"dapper/internal/sim"
)

// generate renders one experiment on pool, or on a one-worker pool
// when pool is nil.
func generate(t *testing.T, id string, p Profile, pool *harness.Pool) *Table {
	t.Helper()
	exps, err := Select(id)
	if err != nil {
		t.Fatal(err)
	}
	if pool == nil {
		pool = harness.NewPool(harness.Options{Workers: 1})
	}
	tbs, err := Generate(exps, p, pool)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return tbs[0]
}

// TestGenerateMatchesSerial is the harness's core guarantee: pooled
// generation must be byte-identical to a serial reference that declares
// the figure, runs each of its runs with Exec and builds the table with
// the same function, at any worker count.
func TestGenerateMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	p := Tiny()
	for _, id := range []string{"fig11", "fig12"} {
		exps, err := Select(id)
		if err != nil {
			t.Fatal(err)
		}
		f, err := exps[0].declare(p)
		if err != nil {
			t.Fatal(err)
		}
		results := make(map[string]sim.Result)
		for _, row := range f.rows {
			for _, c := range row {
				for _, pt := range c.points {
					for _, r := range [2]Run{pt.base, pt.run} {
						if results[r.Desc().Key()], err = r.Exec(); err != nil {
							t.Fatalf("%s: %v", r.Desc(), err)
						}
					}
				}
			}
		}
		serial := f.table(id, results)
		for _, workers := range []int{1, 8} {
			pool := harness.NewPool(harness.Options{Workers: workers})
			parallel := generate(t, id, p, pool)
			if got, want := parallel.String(), serial.String(); got != want {
				t.Fatalf("%s workers=%d diverges from serial:\n--- parallel ---\n%s--- serial ---\n%s",
					id, workers, got, want)
			}
		}
	}
}

// TestGenerateDedupAcrossCalls: regenerating the same experiment on one
// pool must not rerun anything — every request deduplicates against the
// first pass.
func TestGenerateDedupAcrossCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	p := Tiny()
	pool := harness.NewPool(harness.Options{Workers: 4})
	generate(t, "fig11", p, pool)
	ran := pool.Stats().Ran
	if ran == 0 {
		t.Fatal("fig11 must simulate something")
	}
	generate(t, "fig11", p, pool)
	if st := pool.Stats(); st.Ran != ran {
		t.Fatalf("second generation ran %d new simulations", st.Ran-ran)
	}
}

// TestGenerateDiskCache: a fresh pool over the same disk cache serves
// every simulation from disk and runs zero.
func TestGenerateDiskCache(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	p := Tiny()
	dir := t.TempDir()

	c1, err := harness.NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool1 := harness.NewPool(harness.Options{Workers: 4, Cache: c1})
	first := generate(t, "fig11", p, pool1)
	if pool1.Stats().Ran == 0 {
		t.Fatal("cold cache must simulate")
	}

	c2, err := harness.NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	pool2 := harness.NewPool(harness.Options{Workers: 4, Cache: c2})
	second := generate(t, "fig11", p, pool2)
	st := pool2.Stats()
	if st.Ran != 0 {
		t.Fatalf("warm cache reran %d simulations", st.Ran)
	}
	if st.CacheHits == 0 {
		t.Fatal("warm cache reported no hits")
	}
	if first.String() != second.String() {
		t.Fatal("cache-served table differs from the simulated one")
	}
}

// Analytic/static experiments name no points; Generate must render
// them without submitting a job.
func TestGenerateAnalyticPassthrough(t *testing.T) {
	p := Tiny()
	pool := harness.NewPool(harness.Options{Workers: 2})
	for _, id := range []string{"tab1", "tab2", "tab3"} {
		if tb := generate(t, id, p, pool); len(tb.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
	if st := pool.Stats(); st.Submitted != 0 {
		t.Fatalf("analytic experiments submitted %d jobs", st.Submitted)
	}
}

// TestBatchJobs checks the sweep expansion: deterministic order,
// complete grid, distinct descriptor keys.
func TestBatchJobs(t *testing.T) {
	p := Tiny()
	req := BatchRequest{
		Trackers:  []string{"dapper-h", "none"},
		Workloads: p.Workloads, // 2 workloads
		NRHs:      []uint32{125, 500},
		Profile:   p,
	}
	jobs, err := req.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2*2*2 {
		t.Fatalf("got %d jobs, want 8", len(jobs))
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		k := j.Desc.Key()
		if seen[k] {
			t.Fatalf("duplicate key for %s", j.Desc)
		}
		seen[k] = true
	}
	if jobs[0].Desc.Tracker != "DAPPER-H" || jobs[4].Desc.Tracker != "none" {
		t.Fatalf("sweep order wrong: %s / %s", jobs[0].Desc, jobs[4].Desc)
	}
	if !jobs[0].Desc.Benign4 {
		t.Fatal("attack=none sweeps must run four benign copies")
	}
}

func TestBatchJobsValidation(t *testing.T) {
	p := Tiny()
	if _, err := (BatchRequest{Profile: p}).Jobs(); err == nil {
		t.Fatal("empty request must error")
	}
	req := BatchRequest{
		Trackers:  []string{"nosuch"},
		Workloads: p.Workloads,
		NRHs:      []uint32{500},
		Profile:   p,
	}
	if _, err := req.Jobs(); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Fatal("unknown tracker must error with its name")
	}
}

func TestKnownTrackersStable(t *testing.T) {
	ids := KnownTrackers()
	if len(ids) != 11 {
		t.Fatalf("got %d tracker ids: %v", len(ids), ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("ids not sorted: %v", ids)
		}
	}
	for _, want := range []string{"none", "dapper-h", "dapper-s", "hydra", "blockhammer"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing tracker id %q in %v", want, ids)
		}
	}
}

func TestResolveWorkloads(t *testing.T) {
	all, err := ResolveWorkloads("all")
	if err != nil || len(all) != 57 {
		t.Fatalf("all: %d workloads, err=%v", len(all), err)
	}
	rep, err := ResolveWorkloads("rep")
	if err != nil || len(rep) == 0 {
		t.Fatalf("rep: %d workloads, err=%v", len(rep), err)
	}
	one, err := ResolveWorkloads("429.mcf")
	if err != nil || len(one) != 1 || one[0].Name != "429.mcf" {
		t.Fatalf("single: %+v, err=%v", one, err)
	}
	if _, err := ResolveWorkloads("nosuch"); err == nil {
		t.Fatal("unknown workload must error")
	}
}
