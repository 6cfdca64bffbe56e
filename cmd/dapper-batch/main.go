// Command dapper-batch runs an arbitrary tracker x workload x NRH sweep
// straight to JSONL/CSV, without going through a paper figure. It is
// the bulk front-end to internal/harness: every combination is one
// cached, parallel simulation.
//
// Usage:
//
//	dapper-batch -trackers dapper-h,hydra -workloads rep -nrh 125,500,2000
//	dapper-batch -trackers all -workloads 429.mcf -attack refresh -out sweep/
//	dapper-batch -trackers dapper-h -mode drfmsb -nrh 500 -cache .dapper-cache
//
// Selectors: -trackers is a comma list of ids (see -list-trackers) or
// "all"; -workloads is "rep", "all", or a comma list of workload names;
// -attack is an attack kind name (see internal/attack) with "none"
// meaning four benign copies.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dapper/internal/attack"
	"dapper/internal/diag"
	"dapper/internal/dram"
	"dapper/internal/exp"
	"dapper/internal/harness"
	"dapper/internal/rh"
	"dapper/internal/sim"
	"dapper/internal/telemetry"
	"dapper/internal/workloads"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func main() {
	trackers := flag.String("trackers", "dapper-h", "comma list of tracker ids, or 'all'")
	wsel := flag.String("workloads", "rep", "'rep', 'all', or comma list of workload names")
	nrhs := flag.String("nrh", "500", "comma list of RowHammer thresholds")
	attackName := flag.String("attack", "none", "companion attack kind ('none' = benign run)")
	modeName := flag.String("mode", "VRR-BR1", "mitigation mode (VRR-BR1|VRR-BR2|RFMsb|DRFMsb)")
	profile := flag.String("profile", "quick", "tiny, quick, full or bench (windows, geometry, seed)")
	seed := flag.Uint64("seed", 0, "override the profile's workload/attack trace seed (0 = profile default)")
	engineName := flag.String("engine", "event", "simulation engine: event (time-skipping, default) or cycle (per-cycle reference)")
	jobs := flag.Int("jobs", runtime.NumCPU(), "parallel simulation workers (<=0 = NumCPU)")
	batched := flag.Bool("batch", false, "advance all tracker configs sharing a trace stream in lockstep (sim.RunBatch): decode once, full runs only for the lead and diverging points; results stay byte-identical")
	cacheDir := flag.String("cache", "", "disk result-cache directory")
	outDir := flag.String("out", ".", "output directory for batch.jsonl + batch.csv")
	windowUS := flag.Float64("window-us", 0, "in-sim telemetry window in microseconds (0 = off); each result gains a windowed Series")
	attr := flag.Bool("attr", false, "collect slowdown attribution (CPI stacks + blame matrix) on every run")
	telemetryDir := flag.String("telemetry", "", "write harness telemetry (trace.json for Perfetto + counters.json) to this directory")
	debugAddr := flag.String("debug-addr", "", "serve expvar+pprof on this address (e.g. localhost:6060)")
	listTrackers := flag.Bool("list-trackers", false, "list tracker ids and exit")
	flag.Parse()

	if *listTrackers {
		for _, id := range exp.KnownTrackers() {
			fmt.Println(id)
		}
		return
	}

	p, err := exp.ProfileByName(*profile)
	if err != nil {
		fatal(err)
	}
	engine, err := sim.ParseEngine(*engineName)
	if err != nil {
		fatal(err)
	}
	p.Engine = engine
	if *seed != 0 {
		p.Seed = *seed
	}
	if *windowUS < 0 {
		fatal(fmt.Errorf("-window-us must be non-negative (microseconds, 0 = off), got %g", *windowUS))
	}
	if *windowUS > 0 {
		p.TelemetryWindow = dram.US(*windowUS)
	}
	p.Attribution = *attr

	*jobs = harness.NormalizeJobs(*jobs)
	kind, err := attack.ParseKind(*attackName)
	if err != nil {
		fatal(err)
	}
	mode, err := rh.ParseMode(*modeName)
	if err != nil {
		fatal(err)
	}

	trackerIDs := strings.Split(*trackers, ",")
	if *trackers == "all" {
		trackerIDs = exp.KnownTrackers()
	}

	var ws []workloads.Workload
	for _, sel := range strings.Split(*wsel, ",") {
		got, err := exp.ResolveWorkloads(strings.TrimSpace(sel))
		if err != nil {
			fatal(err)
		}
		ws = append(ws, got...)
	}

	var thresholds []uint32
	for _, s := range strings.Split(*nrhs, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 32)
		if err != nil {
			fatal(fmt.Errorf("bad -nrh value %q: %v", s, err))
		}
		thresholds = append(thresholds, uint32(v))
	}

	req := exp.BatchRequest{
		Trackers:  trackerIDs,
		Workloads: ws,
		NRHs:      thresholds,
		Attack:    kind,
		Mode:      mode,
		Profile:   p,
	}
	cache, err := harness.NewCache(*cacheDir)
	if err != nil {
		fatal(err)
	}
	sinks, err := harness.FileSinks(*outDir, "batch.jsonl", "batch.csv")
	if err != nil {
		fatal(err)
	}

	if *batched {
		runBatched(req, *jobs, cache, sinks, *outDir)
		return
	}

	batch, err := req.Jobs()
	if err != nil {
		fatal(err)
	}

	var tracer *telemetry.Tracer
	if *telemetryDir != "" {
		tracer = telemetry.NewTracer()
	}
	blameAgg := diag.NewBlameAgg()
	pool := harness.NewPool(harness.Options{
		OnResult: blameAgg.Observe,
		Workers:  *jobs,
		Cache:    cache,
		Sinks:    sinks,
		Tracer:   tracer,
		OnProgress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r[%d/%d simulations]", done, total)
		},
	})
	if *debugAddr != "" {
		blameAgg.Publish()
		dbg, err := diag.Serve(*debugAddr, pool.Stats)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/debug/vars\n", dbg.Addr())
	}

	//dapper:wallclock sweep elapsed-time for the stderr summary line only
	start := time.Now()
	futures := make([]*harness.Future, len(batch))
	for i, job := range batch {
		futures[i] = pool.Submit(job)
	}
	failed := 0
	for _, f := range futures {
		if _, err := f.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "\n%s: %v\n", f.Desc(), err)
			failed++
		}
	}
	if err := pool.Close(); err != nil {
		fatal(err)
	}
	st := pool.Stats()
	if tracer != nil {
		if err := harness.WriteTelemetry(*telemetryDir, tracer, st); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "telemetry written to %s (open trace.json at https://ui.perfetto.dev)\n", *telemetryDir)
	}
	fmt.Fprintln(os.Stderr)
	fmt.Printf("%d runs (%d simulated, %d cache hits, %d deduplicated) in %.1fs on %d workers\n",
		st.Submitted, st.Ran, st.CacheHits, st.Submitted-st.Unique,
		//dapper:wallclock elapsed seconds printed in the run summary, not written to any sink
		time.Since(start).Seconds(), *jobs)
	fmt.Printf("wrote %s and %s\n",
		filepath.Join(*outDir, "batch.jsonl"), filepath.Join(*outDir, "batch.csv"))
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d runs failed\n", failed)
		os.Exit(1)
	}
}

// runBatched executes the sweep through exp.BatchedSweep (-batch):
// specs sharing a trace stream are decoded once and advanced in
// lockstep, with automatic fallback to independent runs for points
// whose tracker perturbs the stream.
func runBatched(req exp.BatchRequest, jobs int, cache *harness.Cache, sinks []harness.Sink, outDir string) {
	blameAgg := diag.NewBlameAgg()
	//dapper:wallclock sweep elapsed-time for the stderr summary line only
	start := time.Now()
	_, st, err := exp.BatchedSweep(req, harness.Options{
		Workers:  jobs,
		Cache:    cache,
		Sinks:    sinks,
		OnResult: blameAgg.Observe,
		OnProgress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r[%d/%d points]", done, total)
		},
	})
	fmt.Fprintln(os.Stderr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%d points in %d lockstep groups (%d replayed, %d full runs, %d cache hits) in %.1fs on %d workers\n",
		st.Points, st.Groups, st.Lockstep, st.FullRuns, st.CacheHits,
		//dapper:wallclock elapsed seconds printed in the run summary, not written to any sink
		time.Since(start).Seconds(), jobs)
	if len(st.Reasons) > 0 {
		reasons := make([]string, 0, len(st.Reasons))
		for r := range st.Reasons {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			fmt.Printf("  %-22s %d\n", r, st.Reasons[r])
		}
	}
	fmt.Printf("wrote %s and %s\n",
		filepath.Join(outDir, "batch.jsonl"), filepath.Join(outDir, "batch.csv"))
}
