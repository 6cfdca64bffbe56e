// Command dapper-adversary searches the parametric attack space for
// worst-case performance attacks against one or more trackers and
// writes a per-tracker resilience report: the worst-found attack
// parameters, its benign-core slowdown versus the paper's hand-crafted
// tailored attack, and the full search trace.
//
// Usage:
//
//	dapper-adversary -tracker hydra -budget 32 -seed 1
//	dapper-adversary -tracker hydra,comet,abacus -profile quick -out reports/
//	dapper-adversary -tracker all -profile tiny -budget 8 -jobs 4
//	dapper-adversary -tracker dapper-h -mix-cores 3 -budget 16  # heterogeneous co-runners
//
// Reports are deterministic: the same -seed and -budget produce
// byte-identical adversary-<tracker>.jsonl/.csv files (no wall-clock
// in the report path). Candidate evaluations fan out over -jobs
// workers via internal/harness; -cache makes reruns and revisited
// search points free.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dapper/internal/adversary"
	"dapper/internal/diag"
	"dapper/internal/exp"
	"dapper/internal/harness"
	"dapper/internal/mix"
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
	trackers := flag.String("tracker", "dapper-h", "comma list of tracker ids (see -list-trackers), or 'all'")
	wname := flag.String("workload", "429.mcf", "benign workload co-running with the searched attacker")
	mixCores := flag.Int("mix-cores", 0, "run against a heterogeneous benign background mix of this many cores instead of -workload copies (0 = off)")
	mixIntensive := flag.Int("mix-intensive", -1, "benign mix slots from the >=2-RBMPKI group (-1 = seeded random split)")
	nrh := flag.Uint("nrh", 0, "RowHammer threshold (0 = profile default)")
	modeName := flag.String("mode", "VRR-BR1", "mitigation mode (VRR-BR1|VRR-BR2|RFMsb|DRFMsb)")
	objectiveName := flag.String("objective", "perf", "search objective: perf (worst slowdown) or escapes (security-guarantee violations via the shadow oracle)")
	budget := flag.Int("budget", 32, "candidate evaluations per tracker")
	seed := flag.Uint64("seed", 1, "search + workload seed (same seed and budget = byte-identical reports)")
	profile := flag.String("profile", "quick", "tiny, quick, full or bench (windows, geometry)")
	engineName := flag.String("engine", "event", "simulation engine: event or cycle")
	jobs := flag.Int("jobs", runtime.NumCPU(), "parallel simulation workers (<=0 = NumCPU)")
	cacheDir := flag.String("cache", "", "disk result-cache directory")
	outDir := flag.String("out", ".", "output directory for adversary-<tracker>.{jsonl,csv}")
	benchOut := flag.String("bench", "", "write a candidates/sec benchmark JSON to this path")
	attr := flag.Bool("attr", false, "collect slowdown attribution (blame columns in the report rows)")
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
	p.Seed = *seed
	p.Attribution = *attr

	mode, err := rh.ParseMode(*modeName)
	if err != nil {
		fatal(err)
	}
	objective, err := adversary.ParseObjective(*objectiveName)
	if err != nil {
		fatal(err)
	}
	w, err := workloads.ByName(*wname)
	if err != nil {
		fatal(err)
	}
	var bg *mix.Spec
	if *mixCores > 0 {
		sp, err := mix.Generate(mix.GenConfig{
			Cores: *mixCores, Intensive: *mixIntensive, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		bg = &sp
		fmt.Fprintf(os.Stderr, "background mix %s: %s\n", sp.ID(), sp.Label())
	}
	trackerIDs := strings.Split(*trackers, ",")
	if *trackers == "all" {
		trackerIDs = exp.KnownTrackers()
	}
	*jobs = harness.NormalizeJobs(*jobs)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	cache, err := harness.NewCache(*cacheDir)
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

	//dapper:wallclock search throughput (cand/s) for the BENCH_adversary.json record
	start := time.Now()
	evals, baselines := 0, 0
	for _, id := range trackerIDs {
		rep, err := adversary.Search(adversary.Options{
			TrackerID: strings.TrimSpace(id),
			Workload:  w,
			Mix:       bg,
			NRH:       uint32(*nrh),
			Mode:      mode,
			Objective: objective,
			Profile:   p,
			Budget:    *budget,
			Seed:      *seed,
		}, pool)
		if err != nil {
			fmt.Fprintln(os.Stderr)
			fatal(err)
		}
		evals += rep.Evals
		baselines += rep.BaselineRuns
		for ext, write := range map[string]func(*os.File) error{
			".jsonl": func(f *os.File) error { return rep.WriteJSONL(f) },
			".csv":   func(f *os.File) error { return rep.WriteCSV(f) },
		} {
			path := filepath.Join(*outDir, "adversary-"+rep.Tracker+ext)
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := write(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
		fmt.Fprint(os.Stderr, "\r\033[K")
		fmt.Println(rep.Summary())
	}
	if err := pool.Close(); err != nil {
		fatal(err)
	}
	//dapper:wallclock closes the throughput measurement started above
	elapsed := time.Since(start)
	st := pool.Stats()
	if tracer != nil {
		if err := harness.WriteTelemetry(*telemetryDir, tracer, st); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "telemetry written to %s\n", *telemetryDir)
	}
	fmt.Fprintf(os.Stderr, "%d evaluations + %d baseline submissions (%d simulated, %d cache hits) in %.1fs on %d workers; reports in %s\n",
		evals, baselines, st.Ran, st.CacheHits, elapsed.Seconds(), *jobs, *outDir)

	if *benchOut != "" {
		// Candidates counts budgeted evaluations only; baseline
		// submissions (mostly pool-deduplicated) are reported separately
		// so cand_per_sec tracks search throughput, not batch structure.
		bench := struct {
			Profile       string  `json:"profile"`
			Trackers      int     `json:"trackers"`
			Candidates    int     `json:"candidates"`
			Baselines     int     `json:"baseline_submissions"`
			Seconds       float64 `json:"seconds"`
			CandPerSec    float64 `json:"cand_per_sec"`
			Workers       int     `json:"workers"`
			SimulatedRuns int     `json:"simulated_runs"`
			CacheHits     int     `json:"cache_hits"`
			Timestamp     string  `json:"timestamp"`
		}{
			Profile: p.Name, Trackers: len(trackerIDs), Candidates: evals,
			Baselines: baselines,
			Seconds:   elapsed.Seconds(), CandPerSec: float64(evals) / elapsed.Seconds(),
			Workers: *jobs, SimulatedRuns: st.Ran, CacheHits: st.CacheHits,
			//dapper:wallclock benchmark records are timestamped provenance, never cache-keyed
			Timestamp: time.Now().UTC().Format(time.RFC3339),
		}
		data, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*benchOut, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *benchOut)
	}
}
