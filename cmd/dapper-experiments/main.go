// Command dapper-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	dapper-experiments -exp fig11                  # one experiment, quick profile
//	dapper-experiments -exp all -profile full -jobs 16
//	dapper-experiments -exp fig11 -cache .dapper-cache   # rerun = zero sims
//	dapper-experiments -exp all -out results/            # JSONL + CSV records
//	dapper-experiments -list
//
// Experiment ids name the paper's tables and figures (fig1..fig17,
// tab1..tab4) plus the §VI-C security analysis (sec-h); -list prints
// them.
// Simulations fan out over -jobs workers via internal/harness; table
// output is byte-identical for any worker count. Progress and timing go
// to stderr so stdout stays clean for the tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dapper/internal/exp"
	"dapper/internal/harness"
	"dapper/internal/sim"
)

func main() {
	expID := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	profile := flag.String("profile", "quick", "quick or full")
	seed := flag.Uint64("seed", 0, "override the profile's workload/attack trace seed (0 = profile default)")
	engineName := flag.String("engine", "event", "simulation engine: event (time-skipping, default) or cycle (per-cycle reference)")
	jobs := flag.Int("jobs", runtime.NumCPU(), "parallel simulation workers (<=0 = NumCPU)")
	cacheDir := flag.String("cache", "", "disk result-cache directory (reruns hit the cache)")
	outDir := flag.String("out", "", "directory for run records (results.jsonl + results.csv)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, id := range exp.Order() {
			fmt.Println(id)
		}
		return
	}

	var p exp.Profile
	switch *profile {
	case "quick":
		p = exp.Quick()
	case "full":
		p = exp.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown profile %q (quick|full)\n", *profile)
		os.Exit(2)
	}
	engine, err := sim.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	p.Engine = engine
	if *seed != 0 {
		p.Seed = *seed
	}

	*jobs = harness.NormalizeJobs(*jobs)
	cache, err := harness.NewCache(*cacheDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var sinks []harness.Sink
	if *outDir != "" {
		sinks, err = harness.FileSinks(*outDir, "results.jsonl", "results.csv")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	pool := harness.NewPool(harness.Options{
		Workers: *jobs,
		Cache:   cache,
		Sinks:   sinks,
		OnProgress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r[%d/%d simulations]", done, total)
			if done == total {
				fmt.Fprint(os.Stderr, " ")
			}
		},
	})

	ids := []string{*expID}
	if *expID == "all" {
		ids = exp.Order()
	}
	fmt.Printf("profile: %s (%d workloads, sweep %v)\n\n", p.Name, len(p.Workloads), p.NRHSweep)
	for _, id := range ids {
		//dapper:wallclock per-figure elapsed time for the stderr progress line only
		start := time.Now()
		tb, err := exp.Generate(id, p, pool)
		if err != nil {
			fmt.Fprintf(os.Stderr, "\n%s failed: %v\n", id, err)
			// Flush completed records to the sinks before dying so a
			// late failure doesn't discard the finished simulations.
			pool.Close()
			os.Exit(1)
		}
		//dapper:wallclock progress display on stderr, byte-exact tables go to stdout
		fmt.Fprintf(os.Stderr, "\r%s: %.1fs\n", id, time.Since(start).Seconds())
		tb.Fprint(os.Stdout)
	}
	if err := pool.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "sink error: %v\n", err)
		os.Exit(1)
	}
	st := pool.Stats()
	fmt.Fprintf(os.Stderr, "simulations: %d ran, %d cache hits, %d deduplicated (of %d requests) on %d workers\n",
		st.Ran, st.CacheHits, st.Submitted-st.Unique, st.Submitted, *jobs)
	if *outDir != "" {
		fmt.Fprintf(os.Stderr, "records: %s\n", filepath.Join(*outDir, "results.{jsonl,csv}"))
	}
}
