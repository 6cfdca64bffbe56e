// Command dapper-audit runs the shadow security oracle over a tracker x
// attack x mode x NRH conformance sweep and writes the resulting matrix
// as deterministic JSONL/CSV: one row per cell with the oracle verdict
// (escapes, escaped rows, max observed count, margin) next to the
// headline activity counters.
//
// Usage:
//
//	dapper-audit -profile tiny -tracker all -nrh 125 -check
//	dapper-audit -tracker hydra,dapper-h -attack hammer,refresh -mode vrr-br1,rfmsb
//	dapper-audit -profile quick -engine cycle -out audit/
//
// The matrix carries no engine tag and no wall-clock: rerunning with
// the same flags — or with the other -engine — must produce
// byte-identical files, which doubles as an end-to-end equivalence
// check on the event-driven engine. -check turns the conformance
// expectation into an exit code: the insecure baseline ("none") must
// show escapes under the tailored attacks while every real tracker
// shows zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"dapper/internal/diag"
	"dapper/internal/exp"
	"dapper/internal/harness"
	"dapper/internal/rh"
	"dapper/internal/secaudit"
	"dapper/internal/sim"
	"dapper/internal/telemetry"
	"dapper/internal/workloads"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func main() {
	trackers := flag.String("tracker", "all", "comma list of tracker ids (see -list-trackers), or 'all'")
	attacks := flag.String("attack", "hammer,refresh,streaming", "comma list of attack columns (hand-written kinds or 'hammer')")
	modes := flag.String("mode", "vrr-br1,rfmsb", "comma list of mitigation modes")
	nrhs := flag.String("nrh", "125", "comma list of RowHammer thresholds")
	wname := flag.String("workload", "429.mcf", "benign workload co-running with the attacker")
	profile := flag.String("profile", "tiny", "tiny, quick, full or bench (windows, geometry)")
	seed := flag.Uint64("seed", 1, "workload/attack seed")
	engineName := flag.String("engine", "event", "simulation engine: event or cycle")
	jobs := flag.Int("jobs", runtime.NumCPU(), "parallel simulation workers (<=0 = NumCPU)")
	cacheDir := flag.String("cache", "", "disk result-cache directory")
	outDir := flag.String("out", ".", "output directory for audit-matrix.{jsonl,csv}")
	countInjected := flag.Bool("count-injected", false, "charge tracker counter traffic in the oracle ledger")
	attr := flag.Bool("attr", false, "collect slowdown attribution and add blame columns to the matrix")
	check := flag.Bool("check", false, "exit non-zero unless 'none' escapes and every real tracker is escape-free")
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

	w, err := workloads.ByName(*wname)
	if err != nil {
		fatal(err)
	}
	var trackerIDs []string
	for _, id := range strings.Split(*trackers, ",") {
		trackerIDs = append(trackerIDs, strings.TrimSpace(id))
	}
	if *trackers == "all" {
		trackerIDs = exp.KnownTrackers()
	}
	var attackSet []exp.SecurityAttack
	for _, name := range strings.Split(*attacks, ",") {
		a, err := exp.ParseAuditAttack(strings.TrimSpace(name))
		if err != nil {
			fatal(err)
		}
		attackSet = append(attackSet, a)
	}
	var modeSet []rh.MitigationMode
	for _, name := range strings.Split(*modes, ",") {
		m, err := rh.ParseMode(strings.TrimSpace(name))
		if err != nil {
			fatal(err)
		}
		modeSet = append(modeSet, m)
	}
	var nrhSet []uint32
	for _, s := range strings.Split(*nrhs, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 32)
		if err != nil || v == 0 {
			fatal(fmt.Errorf("bad -nrh value %q", s))
		}
		nrhSet = append(nrhSet, uint32(v))
	}
	*jobs = harness.NormalizeJobs(*jobs)
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	req := exp.SecurityRequest{
		Trackers:      trackerIDs,
		Attacks:       attackSet,
		Modes:         modeSet,
		NRHs:          nrhSet,
		Workload:      w,
		Profile:       p,
		CountInjected: *countInjected,
	}
	sweep, cells, err := req.Jobs()
	if err != nil {
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
	futs := make([]*harness.Future, len(sweep))
	for i, job := range sweep {
		futs[i] = pool.Submit(job)
	}

	rows := make([]secaudit.MatrixRow, len(cells))
	escapesByTracker := make(map[string]uint64)
	for i, f := range futs {
		res, err := f.Wait()
		if err != nil {
			fmt.Fprintln(os.Stderr)
			fatal(fmt.Errorf("audit %s/%s: %w", cells[i].Tracker, cells[i].Attack, err))
		}
		rep := res.Audit
		if rep == nil {
			fmt.Fprintln(os.Stderr)
			fatal(fmt.Errorf("audit %s/%s: run carried no audit report (stale cache entry?)", cells[i].Tracker, cells[i].Attack))
		}
		c := cells[i]
		rows[i] = secaudit.MatrixRow{
			Tracker: c.Tracker, TrackerName: c.TrackerName,
			Mode: c.Mode.String(), NRH: c.NRH, Attack: c.Attack,
			Workload: c.Workload, Profile: p.Name,
			Secure: rep.Secure(), Escapes: rep.Escapes,
			EscapedRows: rep.EscapedRows, MaxCount: rep.MaxCount, Margin: rep.Margin,
			ACTs: rep.ACTs, InjectedACTs: rep.InjectedACTs,
			Mitigations: rep.Mitigations, Refreshes: rep.Refreshes,
			BulkResets: rep.BulkResets, Throttled: res.Tracker.Throttled,
		}
		if a := res.Attribution; a != nil {
			rows[i].Attr = true
			for _, core := range sim.BenignCores(len(a.Cores)) {
				m := a.Cores[core].Mem
				rows[i].BlameMitigation += m.Mitigation
				rows[i].BlameInject += m.Inject
				rows[i].BlameThrottle += m.Throttle
			}
		}
		escapesByTracker[c.Tracker] += rep.Escapes
	}
	if err := pool.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprint(os.Stderr, "\r\033[K")
	if tracer != nil {
		if err := harness.WriteTelemetry(*telemetryDir, tracer, pool.Stats()); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "telemetry written to %s\n", *telemetryDir)
	}

	for _, name := range []string{"audit-matrix.jsonl", "audit-matrix.csv"} {
		f, err := os.Create(filepath.Join(*outDir, name))
		if err != nil {
			fatal(err)
		}
		if strings.HasSuffix(name, ".jsonl") {
			err = secaudit.WriteMatrixJSONL(f, rows)
		} else {
			err = secaudit.WriteMatrixCSV(f, rows)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
	}

	st := pool.Stats()
	fmt.Printf("conformance matrix: %d cells (%d unique runs, %d simulated, %d cache hits)\n",
		len(rows), st.Unique, st.Ran, st.CacheHits)
	for _, id := range trackerIDs {
		verdict := "secure (0 escapes)"
		if n := escapesByTracker[id]; n > 0 {
			verdict = fmt.Sprintf("INSECURE (%d escapes)", n)
		}
		fmt.Printf("  %-12s %s\n", id, verdict)
	}
	fmt.Printf("matrix written to %s\n", *outDir)

	if *check {
		failed := false
		for _, id := range trackerIDs {
			n := escapesByTracker[id]
			if id == "none" && n == 0 {
				fmt.Fprintln(os.Stderr, "check FAILED: insecure baseline 'none' showed no escapes — the oracle or the tailored attacks lost their teeth")
				failed = true
			}
			if id != "none" && n > 0 {
				fmt.Fprintf(os.Stderr, "check FAILED: tracker %q let %d escapes through\n", id, n)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
		fmt.Println("conformance check passed: baseline escapes, every tracker holds")
	}
}
