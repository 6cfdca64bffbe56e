// Command dapper-mix runs heterogeneous multi-programmed scenario
// sweeps: seeded random workload mixes (stratified by the paper's
// >= 2-RBMPKI memory-intensity grouping) with k attackers on seeded
// random cores, swept over tracker x mix x NRH and scored by
// weighted/harmonic speedup and fairness against per-core isolated
// baselines.
//
// Usage:
//
//	dapper-mix -profile tiny -mixes 2 -attackers 1 -tracker none,hydra,dapper-h
//	dapper-mix -profile quick -mixes 8 -attackers 2 -attack hammer -audit -check
//	dapper-mix -cores 6 -intensive 3 -nrh 125,500 -out mixes/
//
// The report (mix-report.{jsonl,csv}) carries no engine tag and no
// wall-clock: rerunning with the same flags — or with the other
// -engine — must produce byte-identical files. -check turns sanity
// into an exit code: metrics must be finite and within bounds, and
// (with -audit) the insecure baseline must escape under attacker mixes
// while every real tracker holds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dapper/internal/diag"
	"dapper/internal/exp"
	"dapper/internal/harness"
	"dapper/internal/mix"
	"dapper/internal/rh"
	"dapper/internal/sim"
	"dapper/internal/telemetry"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func main() {
	trackers := flag.String("tracker", "all", "comma list of tracker ids (see -list-trackers), or 'all'")
	nMixes := flag.Int("mixes", 4, "number of generated mixes (mix i uses seed+i)")
	cores := flag.Int("cores", 4, "slots per mix")
	attackers := flag.Int("attackers", 1, "attacker slots per mix")
	attackName := flag.String("attack", "refresh", "attacker pattern (hand-written kinds or 'hammer')")
	intensive := flag.Int("intensive", -1, "benign slots from the >=2-RBMPKI group (-1 = seeded random split)")
	nrhs := flag.String("nrh", "500", "comma list of RowHammer thresholds")
	modeName := flag.String("mode", "VRR-BR1", "mitigation mode (VRR-BR1|VRR-BR2|RFMsb|DRFMsb)")
	profile := flag.String("profile", "tiny", "tiny, quick, full or bench (windows, geometry)")
	seed := flag.Uint64("seed", 1, "mix-generation + workload/attack seed")
	engineName := flag.String("engine", "event", "simulation engine: event or cycle")
	jobs := flag.Int("jobs", runtime.NumCPU(), "parallel simulation workers (<=0 = NumCPU)")
	cacheDir := flag.String("cache", "", "disk result-cache directory")
	outDir := flag.String("out", ".", "output directory for mix-report.{jsonl,csv}")
	audit := flag.Bool("audit", false, "attach the shadow security oracle to every mix run")
	attr := flag.Bool("attr", false, "collect slowdown attribution (blame columns in the report rows)")
	check := flag.Bool("check", false, "exit non-zero on out-of-bounds metrics (and, with -audit, on conformance violations)")
	benchOut := flag.String("bench", "", "write a runs/sec benchmark JSON to this path")
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
	atk, err := exp.ParseAuditAttack(*attackName)
	if err != nil {
		fatal(err)
	}
	atkSlot := mix.Slot{Attack: atk.Point.Kind.String(), Params: atk.Point.Params}
	trackerIDs := exp.KnownTrackers()
	if *trackers != "all" {
		trackerIDs = nil
		for _, id := range strings.Split(*trackers, ",") {
			trackerIDs = append(trackerIDs, strings.TrimSpace(id))
		}
	}
	var nrhSet []uint32
	for _, s := range strings.Split(*nrhs, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 32)
		if err != nil || v == 0 {
			fatal(fmt.Errorf("bad -nrh value %q", s))
		}
		nrhSet = append(nrhSet, uint32(v))
	}
	if *nMixes <= 0 || *cores <= 0 {
		fatal(fmt.Errorf("-mixes and -cores must be positive (got %d, %d)", *nMixes, *cores))
	}
	*jobs = harness.NormalizeJobs(*jobs)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	mixes := make([]mix.Spec, *nMixes)
	for i := range mixes {
		mixes[i], err = mix.Generate(mix.GenConfig{
			Cores:     *cores,
			Attackers: *attackers,
			Attack:    atkSlot,
			Intensive: *intensive,
			Seed:      *seed + uint64(i),
		})
		if err != nil {
			fatal(err)
		}
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

	//dapper:wallclock sweep throughput (cells/s) for the BENCH_mix.json record
	start := time.Now()
	rows, err := exp.RunMixSweep(exp.MixRequest{
		Trackers: trackerIDs,
		Mixes:    mixes,
		NRHs:     nrhSet,
		Mode:     mode,
		Profile:  p,
		Audit:    *audit,
	}, pool)
	if err != nil {
		fmt.Fprintln(os.Stderr)
		fatal(err)
	}
	if err := pool.Close(); err != nil {
		fatal(err)
	}
	//dapper:wallclock closes the throughput measurement started above
	elapsed := time.Since(start)
	fmt.Fprint(os.Stderr, "\r\033[K")
	if tracer != nil {
		if err := harness.WriteTelemetry(*telemetryDir, tracer, pool.Stats()); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "telemetry written to %s\n", *telemetryDir)
	}

	for _, name := range []string{"mix-report.jsonl", "mix-report.csv"} {
		f, err := os.Create(filepath.Join(*outDir, name))
		if err != nil {
			fatal(err)
		}
		if strings.HasSuffix(name, ".jsonl") {
			err = mix.WriteReportJSONL(f, rows)
		} else {
			err = mix.WriteReportCSV(f, rows)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
	}

	st := pool.Stats()
	fmt.Printf("mix sweep: %d mixes x %d trackers x %d NRHs = %d cells (%d unique runs, %d simulated, %d cache hits)\n",
		len(mixes), len(trackerIDs), len(nrhSet), len(rows), st.Unique, st.Ran, st.CacheHits)
	for _, sp := range mixes {
		fmt.Printf("  %s  %s (%d intensive, %d attackers)\n",
			sp.ID(), sp.Label(), sp.Intensive(), sp.Attackers())
	}
	fmt.Printf("report written to %s\n", *outDir)

	if *check {
		failed := false
		fail := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "check FAILED: "+format+"\n", args...)
			failed = true
		}
		escapesByTracker := make(map[string]uint64)
		audited := false
		verdict := "metrics in bounds"
		for _, r := range rows {
			n := float64(len(r.PerCore))
			bad := math.IsNaN(r.Weighted) || math.IsInf(r.Weighted, 0) ||
				math.IsNaN(r.Harmonic) || math.IsInf(r.Harmonic, 0) ||
				math.IsNaN(r.Fairness) || math.IsInf(r.Fairness, 0)
			if bad {
				fail("%s/%s nrh=%d: non-finite metrics", r.Tracker, r.Mix, r.NRH)
			}
			// A fully-starved benign core is a legitimate attack outcome,
			// so the lower bounds admit zero.
			if r.Weighted < 0 || r.Weighted > 1.5*n {
				fail("%s/%s nrh=%d: weighted speedup %g outside [0, 1.5*%g]", r.Tracker, r.Mix, r.NRH, r.Weighted, n)
			}
			if r.Fairness < 0 || r.Fairness > 1 {
				fail("%s/%s nrh=%d: fairness %g outside [0,1]", r.Tracker, r.Mix, r.NRH, r.Fairness)
			}
			if r.Audited {
				audited = true
				escapesByTracker[r.Tracker] += r.Escapes
			}
		}
		if audited {
			// Real trackers must always hold; demanding escapes from the
			// insecure baseline is only meaningful when the sweep both
			// included it and ran attacker slots with the escape-forcing
			// focused hammer — a refresh attacker at NRH 500 in a short
			// window honestly cannot escape, and that must not read as a
			// check failure.
			basePresent := false
			for _, id := range trackerIDs {
				basePresent = basePresent || id == "none"
			}
			baselineGate := strings.EqualFold(*attackName, "hammer") && *attackers > 0 && basePresent
			for _, id := range trackerIDs {
				n := escapesByTracker[id]
				if id == "none" && baselineGate && n == 0 {
					fail("insecure baseline 'none' showed no escapes under %d-hammer mixes", *attackers)
				}
				if id != "none" && n > 0 {
					fail("tracker %q let %d escapes through", id, n)
				}
			}
			if baselineGate {
				verdict += ", baseline escapes, every tracker holds"
			} else {
				verdict += ", every tracker holds"
				fmt.Fprintln(os.Stderr, "note: baseline-escape gate skipped (needs 'none' in -tracker, attacker slots, and the escape-forcing 'hammer')")
			}
		}
		if failed {
			os.Exit(1)
		}
		fmt.Println("mix check passed: " + verdict)
	}

	if *benchOut != "" {
		bench := struct {
			Profile       string  `json:"profile"`
			Mixes         int     `json:"mixes"`
			Cells         int     `json:"cells"`
			Seconds       float64 `json:"seconds"`
			CellsPerSec   float64 `json:"cells_per_sec"`
			Workers       int     `json:"workers"`
			SimulatedRuns int     `json:"simulated_runs"`
			CacheHits     int     `json:"cache_hits"`
			Timestamp     string  `json:"timestamp"`
		}{
			Profile: p.Name, Mixes: len(mixes), Cells: len(rows),
			Seconds: elapsed.Seconds(), CellsPerSec: float64(len(rows)) / elapsed.Seconds(),
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
