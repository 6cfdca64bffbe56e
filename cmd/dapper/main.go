// Command dapper reproduces the DAPPER paper's evaluation. Every table,
// figure, sweep and single run is a subcommand over one shared flag
// set: a flag has the same meaning and the same default in every
// subcommand that takes it.
//
// Usage:
//
//	dapper experiments -exp fig11 -profile quick -jobs 8 -cache .simcache
//	dapper batch -tracker dapper-h,hydra -workload rep -nrh 125,500,2000
//	dapper batch -audit -profile tiny -tracker all -attack hammer,refresh,streaming -nrh 125 -check
//	dapper adversary -tracker hydra,comet -profile tiny -budget 10
//	dapper sim -workload ycsb_a -tracker comet -attack rat-thrash
//	dapper sim -tracker dapper-h,none -attack hammer -nrh 125 -window 10 -check
//	dapper list trackers|workloads|experiments
//
// `dapper <subcommand> -h` lists the flags a subcommand takes. Tables,
// summaries and "wrote" lines go to stdout, files go under -out, and
// progress and timing go to stderr. A bad flag value exits 2 with a
// message that names the flag; a failed run or check exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dapper/internal/diag"
	"dapper/internal/exp"
	"dapper/internal/harness"
	"dapper/internal/telemetry"
	"dapper/internal/workloads"
)

// command is one subcommand: the flags it takes (names in flagDefs)
// and what it runs.
type command struct {
	name, brief string
	flags       []string
	run         func(*cli) error
}

// Flag groups several subcommands take together.
var (
	poolFlags = []string{"profile", "seed", "engine", "jobs", "cache", "out", "telemetry", "debug-addr"}
	runFlags  = []string{"workload", "tracker", "attack", "nrh", "mode", "warmup", "measure", "rows-per-bank", "seed", "engine"}
)

func with(groups ...[]string) []string {
	var out []string
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

var commands = []command{
	{"experiments", "regenerate the paper's tables and figures (records to -out/results.jsonl)",
		with([]string{"exp"}, poolFlags), runExperiments},
	{"batch", "tracker x workload x attack x mode x NRH sweep to -out/batch.jsonl (-audit adds the security verdicts)",
		with([]string{"tracker", "workload", "nrh", "attack", "mode", "window", "attr", "audit", "count-injected", "check"}, poolFlags), runBatch},
	{"adversary", "black-box worst-case attack search (-objective perf|escapes)",
		with([]string{"tracker", "workload", "nrh", "mode", "objective", "budget", "attr"}, poolFlags), runAdversary},
	{"sim", "one simulation per tracker: IPC, DRAM and tracker statistics (-window adds -out/sim.jsonl and timeline-<tracker>.txt)",
		with(runFlags, []string{"window", "out", "check", "debug-addr"}), runSim},
	{"list", "list trackers, workloads or experiments", nil, runList},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one dapper invocation and returns its exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	var cmd *command
	for i := range commands {
		if commands[i].name == args[0] {
			cmd = &commands[i]
		}
	}
	if cmd == nil {
		if args[0] == "-h" || args[0] == "-help" || args[0] == "help" {
			usage(stdout)
			return 0
		}
		fmt.Fprintf(stderr, "dapper: unknown subcommand %q\n", args[0])
		usage(stderr)
		return 2
	}
	c := &cli{stdout: stdout, stderr: stderr}
	fs := c.flagSet(*cmd)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	c.args = fs.Args()
	var err error
	if cmd.name != "list" && fs.NArg() > 0 {
		err = usageError{fmt.Errorf("unexpected argument %q", fs.Arg(0))}
	} else {
		err = cmd.run(c)
	}
	if err != nil {
		fmt.Fprintf(stderr, "dapper %s: %v\n", cmd.name, err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	return 0
}

// flagSet builds cmd's flag set over c.
func (c *cli) flagSet(cmd command) *flag.FlagSet {
	fs := flag.NewFlagSet("dapper "+cmd.name, flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	for _, name := range cmd.flags {
		flagDefs[name](fs, c)
	}
	return fs
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: dapper <subcommand> [flags]")
	fmt.Fprintln(w)
	for _, cmd := range commands {
		fmt.Fprintf(w, "  %-13s %s\n", cmd.name, cmd.brief)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "'dapper <subcommand> -h' lists a subcommand's flags.")
}

func runList(c *cli) error {
	what := ""
	if len(c.args) == 1 {
		what = c.args[0]
	}
	switch what {
	case "trackers":
		for _, id := range exp.KnownTrackers() {
			fmt.Fprintln(c.stdout, id)
		}
	case "workloads":
		for _, w := range workloads.All() {
			fmt.Fprintf(c.stdout, "%-16s %-11s APKI=%.0f RBMPKI=%.1f\n", w.Name, w.Suite, w.AccessPKI, w.RBMPKI)
		}
	case "experiments":
		for _, e := range exp.Experiments {
			fmt.Fprintln(c.stdout, e.ID)
		}
	default:
		return usageError{fmt.Errorf("want one of: trackers, workloads, experiments")}
	}
	return nil
}

// withPool runs fn on a harness pool wired the way every sweep
// subcommand shares: -jobs workers, the -cache store, a progress line
// on stderr, a diag.BlameAgg behind -debug-addr, and the -telemetry
// tracer. The pool is waited on even when fn fails; the telemetry
// files are written only when it succeeds.
func (c *cli) withPool(fn func(*harness.Pool) error) (harness.Stats, error) {
	opts, err := c.harnessOptions()
	if err != nil {
		return harness.Stats{}, err
	}
	if c.telemetry != "" {
		opts.Tracer = telemetry.NewTracer()
	}
	if c.debugAddr != "" {
		agg := diag.NewBlameAgg()
		opts.OnResult = agg.Observe
		agg.Publish()
	}
	pool := harness.NewPool(opts)
	if c.debugAddr != "" {
		dbg, err := diag.Serve(c.debugAddr, pool.Stats)
		if err != nil {
			return harness.Stats{}, flagErr("debug-addr", err)
		}
		defer dbg.Close()
		fmt.Fprintf(c.stderr, "debug endpoint on http://%s/debug/vars\n", dbg.Addr())
	}
	err = fn(pool)
	pool.Wait()
	fmt.Fprint(c.stderr, "\r\033[K")
	st := pool.Stats()
	if err == nil && opts.Tracer != nil {
		if err = harness.WriteTelemetry(c.telemetry, opts.Tracer, st); err == nil {
			fmt.Fprintf(c.stderr, "telemetry written to %s (open trace.json at https://ui.perfetto.dev)\n", c.telemetry)
		}
	}
	return st, err
}

// harnessOptions is the worker, cache and progress wiring of every
// sweep subcommand's pool; it attaches a cache only when -cache names a
// directory. It resolves -jobs in place, so summaries
// print the worker count actually used.
func (c *cli) harnessOptions() (harness.Options, error) {
	c.jobs = harness.NormalizeJobs(c.jobs)
	opts := harness.Options{
		Workers: c.jobs,
		OnProgress: func(done, total int) {
			fmt.Fprintf(c.stderr, "\r[%d/%d simulations]", done, total)
		},
	}
	if c.cache != "" {
		cache, err := harness.NewCache(c.cache)
		if err != nil {
			return harness.Options{}, flagErr("cache", err)
		}
		opts.Cache = cache
	}
	return opts, nil
}

// writeFile creates name under -out, fills it, and reports the path.
func (c *cli) writeFile(name string, fill func(io.Writer) error) error {
	if err := c.saveFile(name, fill); err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "wrote %s\n", filepath.Join(c.out, name))
	return nil
}

// saveFile creates name under -out and fills it, reporting nothing.
func (c *cli) saveFile(name string, fill func(io.Writer) error) error {
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(c.out, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = fill(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// writeRecords writes a pool's records to <base>.jsonl under -out. It
// prints nothing; each command names the file its own way.
func (c *cli) writeRecords(base string, recs []harness.Record) error {
	return c.saveFile(base+".jsonl", func(w io.Writer) error { return harness.WriteJSONL(w, recs) })
}
