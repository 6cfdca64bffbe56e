// Command simbench is the repository's benchmark: it runs one of three
// named workloads through the public exp and harness API for a fixed
// time, checks every simulated Result, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as the last line
// of standard output. README.md explains the workloads and metrics.
//
// Run it from the repository root through the launcher, which builds
// it first:
//
//	bash simbench/run.sh -workload benign -seed 1 -seconds 20 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"syscall"
	"time"

	"dapper/internal/exp"
	"dapper/internal/telemetry"
)

// setupProbes is how many fresh processes measure setup_s per run.
const setupProbes = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the line before the result: what a reader needs to trust
// and reproduce the numbers, plus the metrics the result line cannot
// carry (error_rate is failed/attempted there; model_slowdown_pct is
// undefined for nrh-sweep).
type report struct {
	Workload         string     `json:"workload"`
	Seed             uint64     `json:"seed"`
	Trace            int        `json:"trace"`
	PassWallS        []float64  `json:"pass_wall_s"`
	ErrorRate        float64    `json:"error_rate"`
	ModelSlowdownPct *float64   `json:"model_slowdown_pct,omitempty"`
	PaperSlowdownPct string     `json:"paper_slowdown_pct,omitempty"`
	Digest           string     `json:"digest"`
	Pinned           bool       `json:"pinned"`
	Problems         []string   `json:"problems,omitempty"`
	Artifacts        []string   `json:"artifacts,omitempty"`
	Provenance       provenance `json:"provenance"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: benign, perf-attack or nrh-sweep")
	seed := fs.Uint64("seed", 1, "trace seed")
	seconds := fs.Int("seconds", 20, "measure for this many seconds (at least one pass)")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	work := fs.String("work", ".bench_build", "directory for scratch files and trace artifacts")
	pinPath := fs.String("pin", "", "regenerate the seed-1 pins into this file and exit")
	probe := fs.Bool("setup-probe", false, "internal: run until the first point completes, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	tmp := filepath.Join(*work, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	if *pinPath != "" {
		if err := pinAll(*pinPath, tmp, stderr); err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "simbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	profile := exp.Quick()
	profile.Seed = *seed
	if *probe {
		r := &runner{workload: w.name, profile: profile, tmpDir: tmp, onFirst: func() { os.Exit(0) }}
		if _, err := w.run(r); err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
		}
		return 3 // the first point never completed
	}
	prov, err := collectProvenance(*seed)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	chk, err := newChecker(w, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	b := &bench{w: w, profile: profile, tmp: tmp, chk: chk, expected: expectedPoints(w.name, profile)}
	var metrics map[string]metric
	if *trace == 0 {
		metrics = b.untraced(time.Duration(*seconds) * time.Second)
	} else {
		metrics = b.traced(time.Duration(*seconds)*time.Second, filepath.Join(*work, "trace"), *seed, stderr)
	}

	rep := report{
		Workload: w.name, Seed: *seed, Trace: *trace,
		PaperSlowdownPct: w.paperSlowdown, Pinned: chk.pinned,
		Problems: chk.problems, Artifacts: b.artifacts, Provenance: prov,
	}
	for _, d := range b.walls {
		rep.PassWallS = append(rep.PassWallS, d.Seconds())
	}
	if chk.attempted > 0 {
		rep.ErrorRate = float64(chk.failed) / float64(chk.attempted)
	}
	if chk.haveSlowdown {
		rep.ModelSlowdownPct = &chk.slowdown
	}
	if chk.ref != nil {
		rep.Digest = digest(chk.ref)
	}
	res := result{
		Correct:   chk.failed == 0 && len(chk.problems) == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   metrics,
	}
	if !res.Correct {
		// Discard numbers measured on wrong or unchecked results.
		res.Metrics = map[string]metric{}
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]report{"report": rep}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

// bench runs and scores the passes of one benchmark run.
type bench struct {
	w         workload
	profile   exp.Profile
	tmp       string
	chk       *checker
	expected  int // points one pass checks
	walls     []time.Duration
	artifacts []string
}

// expectedPoints is how many points one pass of a workload checks: its
// sweep points, twice for nrh-sweep (cold and warm pass).
func expectedPoints(name string, profile exp.Profile) int {
	n := 0
	for _, req := range requests(name, profile) {
		jobs, err := req.Jobs()
		if err == nil {
			n += len(jobs)
		}
	}
	if name == "nrh-sweep" {
		n *= 2
	}
	return n
}

// measuredPass runs one pass after a forced GC, timing it and counting
// the bytes it allocates, then checks its Results. A pass that fails
// outright counts every point it would have checked as failed.
func (b *bench) measuredPass(r *runner) (*pass, bool) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	p, err := b.w.run(r)
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		b.chk.attempted += b.expected
		b.chk.failed += b.expected
		b.chk.problemf("pass: %v", err)
		return nil, false
	}
	p.wall, p.allocBytes = wall, m1.TotalAlloc-m0.TotalAlloc
	b.walls = append(b.walls, wall)
	b.chk.check(b.w, p)
	return p, true
}

func (b *bench) runner() *runner {
	return &runner{workload: b.w.name, profile: b.profile, tmpDir: b.tmp}
}

// untraced measures the end-to-end metrics: setup time from fresh
// processes, then whole passes until the measuring time is used up.
func (b *bench) untraced(d time.Duration) map[string]metric {
	setup := b.setupTimes()
	var walls, rates, allocs []float64
	for start := time.Now(); len(walls) == 0 || time.Since(start) < d; {
		p, ok := b.measuredPass(b.runner())
		if !ok {
			break
		}
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(simCycles(p))/p.wall.Seconds())
		allocs = append(allocs, float64(p.allocBytes)/1e6)
	}
	if len(walls) == 0 || len(setup) == 0 {
		return nil
	}
	return map[string]metric{
		"setup_s":          {median(setup), "s"},
		"wall_s":           {median(walls), "s"},
		"sim_cycles_per_s": {median(rates), "1/s"},
		"alloc_mb":         {median(allocs), "MB"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
	}
}

// setupTimes starts setupProbes fresh processes of this binary, each
// running the workload only until its first point completes, and
// returns their wall times from start to exit: process start-up,
// package initialisation, request expansion, pool or cache set-up and
// the first simulation.
//
//dapper:wallclock set-up time is what this measures
func (b *bench) setupTimes() []float64 {
	exe, err := os.Executable()
	if err != nil {
		b.chk.problemf("setup probe: %v", err)
		return nil
	}
	var out []float64
	for i := 0; i < setupProbes; i++ {
		dir, err := os.MkdirTemp(b.tmp, "probe-")
		if err != nil {
			b.chk.problemf("setup probe: %v", err)
			return nil
		}
		var stderr bytes.Buffer
		cmd := exec.Command(exe, "-setup-probe", "-workload", b.w.name,
			"-seed", strconv.FormatUint(b.profile.Seed, 10), "-work", dir)
		cmd.Stderr = &stderr
		start := time.Now()
		err = cmd.Run()
		elapsed := time.Since(start)
		os.RemoveAll(dir)
		if err != nil {
			b.chk.problemf("setup probe: %v: %s", err, stderr.String())
			return nil
		}
		out = append(out, elapsed.Seconds())
	}
	return out
}

// simCycles is the simulated DRAM time (warmup plus measure) of every
// point a pass simulated or replayed; cache hits are excluded.
func simCycles(p *pass) uint64 {
	var n uint64
	for _, pt := range p.points {
		if !pt.cached {
			n += uint64(pt.desc.Warmup + pt.desc.Measure)
		}
	}
	return n
}

// traced measures the per-layer metrics: pairs of an untraced pass and
// a traced one (spans plus a CPU profile) until the measuring time is
// used up. Both passes are checked against the same reference, so a
// traced pass whose Results differ from the untraced one's fails the
// run, which then reports no metrics.
func (b *bench) traced(d time.Duration, dir string, seed uint64, stderr io.Writer) map[string]metric {
	self := make(map[string]float64)
	unmapped := make(map[string]float64)
	var plain, withTrace []float64
	var first *pass
	var profile []byte
	var warmPass time.Duration
	tracer := telemetry.NewTracer()
	tracer.SetLaneName(benchLane, "bench")
	// tracedPass runs one pass with spans and a CPU profile attached.
	tracedPass := func() (*pass, *runner, []byte, bool) {
		r := b.runner()
		r.tracer = tracer
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			b.chk.problemf("cpu profile: %v", err)
			return nil, nil, nil, false
		}
		p, ok := b.measuredPass(r)
		pprof.StopCPUProfile()
		return p, r, buf.Bytes(), ok
	}
	// Pairs alternate which pass goes first, so the slower first pass of
	// a fresh process does not bias trace_overhead.
	for i, start := 0, time.Now(); len(withTrace) == 0 || time.Since(start) < d; i++ {
		var (
			p0, p1   *pass
			r        *runner
			prof     []byte
			ok0, ok1 bool
		)
		if i%2 == 0 {
			if p0, ok0 = b.measuredPass(b.runner()); ok0 {
				p1, r, prof, ok1 = tracedPass()
			}
		} else {
			if p1, r, prof, ok1 = tracedPass(); ok1 {
				p0, ok0 = b.measuredPass(b.runner())
			}
		}
		if !ok0 || !ok1 || b.chk.failed > 0 {
			return nil
		}
		byLayer, un, err := fold(prof)
		if err != nil {
			b.chk.problemf("%v", err)
			return nil
		}
		for k, v := range byLayer {
			self[k] += v
		}
		for k, v := range un {
			unmapped[k] += v
		}
		plain = append(plain, p0.wall.Seconds())
		withTrace = append(withTrace, p1.wall.Seconds())
		warmPass += r.spans["exp.BatchedSweep warm"]
		if first == nil {
			first = p1
		}
		profile = prof
	}
	for pkg, s := range unmapped {
		fmt.Fprintf(stderr, "simbench: %.3fs of samples in %s, which the layer map lacks\n", s, pkg)
	}
	b.artifacts = b.writeArtifacts(dir, seed, tracer, profile)
	passes := float64(len(withTrace))
	total := 0.0
	for _, v := range self {
		total += v
	}
	for _, v := range unmapped {
		total += v
	}
	m := make(map[string]metric)
	for _, l := range layers {
		m[l+".self_s"] = metric{self[l] / passes, "s"}
		share := 0.0
		if total > 0 {
			share = self[l] / total
		}
		m[l+".share"] = metric{share, "fraction"}
	}
	c := countWork(first)
	for k, v := range c.metrics() {
		m[k] = v
	}
	per := func(layerSecs float64, n float64, scale float64) float64 {
		if n == 0 {
			return 0
		}
		return layerSecs / passes * 1e9 / (n / scale)
	}
	m["cpu.ns_per_kinstr"] = metric{per(self["cpu"], float64(c.instructions), 1e3), "ns"}
	m["dram.ns_per_request"] = metric{per(self["dram"], float64(c.memRequests), 1), "ns"}
	m["mem.ns_per_request"] = metric{per(self["mem"], float64(c.memRequests), 1), "ns"}
	m["core.ns_per_act"] = metric{per(self["core"]+self["llbc"], float64(c.activations), 1), "ns"}
	m["sim.ns_per_kcycle"] = metric{per(self["sim"], float64(simCycles(first)), 1e3), "ns"}
	m["harness.warm_pass_s"] = metric{warmPass.Seconds() / passes, "s"}
	m["trace_overhead"] = metric{median(withTrace) / median(plain), "ratio"}
	return m
}

// writeArtifacts saves the spans (Chrome trace JSON, viewable in
// Perfetto) and the last traced pass's CPU profile, for go tool pprof.
func (b *bench) writeArtifacts(dir string, seed uint64, tracer *telemetry.Tracer, profile []byte) []string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		b.chk.problemf("artifacts: %v", err)
		return nil
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.w.name, seed))
	var spans bytes.Buffer
	if err := tracer.WriteChromeTrace(&spans); err != nil {
		b.chk.problemf("artifacts: %v", err)
		return nil
	}
	files := []string{stem + ".trace.json", stem + ".cpu.pprof"}
	for i, data := range [][]byte{spans.Bytes(), profile} {
		if err := os.WriteFile(files[i], data, 0o644); err != nil {
			b.chk.problemf("artifacts: %v", err)
			return nil
		}
	}
	return files
}

// work is the simulated work one pass did, from its Results and the
// harness and batch counters.
type work struct {
	instructions, memRequests, activations uint64
	acts, mitigations, injected            uint64
	llcHitRate, rowHitRate, readWait       float64
	fullRuns, lockstep, points             int
	cacheHits, cacheMisses                 int
}

// countWork sums a pass's work counts. Core, LLC, DRAM and controller
// work happens only in full simulations; the tracker also runs in every
// lockstep replay.
func countWork(p *pass) work {
	w := work{fullRuns: p.fullRuns, lockstep: p.lockstep, points: len(p.points),
		cacheHits: p.cacheHits, cacheMisses: p.cacheMisses}
	var rowHits, rowMisses, reads uint64
	var wait float64
	full := 0
	for _, pt := range p.points {
		if pt.cached {
			continue
		}
		res := pt.res
		w.activations += res.Tracker.Activations
		w.mitigations += res.Tracker.Mitigations
		w.injected += res.Tracker.InjectedReads + res.Tracker.InjectedWrites
		if !pt.full {
			continue
		}
		full++
		for _, n := range res.Instructions {
			w.instructions += n
		}
		w.acts += res.Counters.ACT
		w.memRequests += res.Mem.ReadsServed + res.Mem.WritesServed
		rowHits += res.Mem.RowHits
		rowMisses += res.Mem.RowMisses
		reads += res.Mem.ReadsServed
		wait += float64(res.Mem.TotalReadWait)
		w.llcHitRate += res.LLCHitRate
	}
	if full > 0 {
		w.llcHitRate /= float64(full)
	}
	if rowHits+rowMisses > 0 {
		w.rowHitRate = float64(rowHits) / float64(rowHits+rowMisses)
	}
	if reads > 0 {
		w.readWait = wait / float64(reads)
	}
	return w
}

func (w work) metrics() map[string]metric {
	share := 0.0
	if w.points > 0 {
		share = float64(w.lockstep) / float64(w.points)
	}
	return map[string]metric{
		"cpu.instructions":     {float64(w.instructions), "count"},
		"cache.hit_rate":       {w.llcHitRate, "fraction"},
		"dram.acts":            {float64(w.acts), "count"},
		"mem.requests":         {float64(w.memRequests), "count"},
		"mem.row_hit_rate":     {w.rowHitRate, "fraction"},
		"mem.read_wait_cycles": {w.readWait, "cycles"},
		"core.activations":     {float64(w.activations), "count"},
		"core.mitigations":     {float64(w.mitigations), "count"},
		"core.injected":        {float64(w.injected), "count"},
		"sim.full_runs":        {float64(w.fullRuns), "count"},
		"exp.lockstep_share":   {share, "fraction"},
		"harness.cache_hits":   {float64(w.cacheHits), "count"},
		"harness.cache_misses": {float64(w.cacheMisses), "count"},
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is this process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
