package main

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"

	"dapper/internal/attack"
	"dapper/internal/dram"
	"dapper/internal/exp"
	"dapper/internal/rh"
	"dapper/internal/sim"
	"dapper/internal/workloads"
)

// cli is one invocation: the value of every flag the subcommand took
// (the rest keep their zero values) and the writers it reports to.
type cli struct {
	stdout, stderr io.Writer
	args           []string // positional arguments (list only)

	profile, engine, cache, out, telemetry, debugAddr string
	tracker, workload, attack, mode, nrh              string
	exp, objective                                    string

	seed                              uint64
	jobs, budget                      int
	window, warmup, measure           float64
	rowsPerBank                       uint
	attr, audit, check, countInjected bool
}

// flagDefs declares every flag exactly once. A flag's default and help
// text are the same in every subcommand that takes it; a subcommand
// only chooses which flags it takes.
var flagDefs = map[string]func(*flag.FlagSet, *cli){
	"profile": func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.profile, "profile", "quick", "tiny, quick or full (workloads, windows, geometry)")
	},
	"seed": func(fs *flag.FlagSet, c *cli) {
		fs.Uint64Var(&c.seed, "seed", 1, "workload, attack and search seed (every profile's own seed is 1)")
	},
	"engine": func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.engine, "engine", "event", "simulation engine: event (time-skipping) or cycle (per-cycle reference)")
	},
	"jobs": func(fs *flag.FlagSet, c *cli) {
		fs.IntVar(&c.jobs, "jobs", runtime.NumCPU(), "parallel simulation workers (<=0 = NumCPU)")
	},
	"cache": func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.cache, "cache", "", "disk result-cache directory (reruns by the same build hit the cache)")
	},
	"out": func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.out, "out", ".", "output directory")
	},
	"attr": func(fs *flag.FlagSet, c *cli) {
		fs.BoolVar(&c.attr, "attr", false, "collect slowdown attribution (CPI stacks + blame matrix) on every run")
	},
	"telemetry": func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.telemetry, "telemetry", "", "write harness telemetry (trace.json for Perfetto + counters.json) to this directory")
	},
	"debug-addr": func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.debugAddr, "debug-addr", "", "serve expvar+pprof on this address (e.g. localhost:6060)")
	},
	"tracker": func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.tracker, "tracker", "dapper-h", "comma list of tracker ids (dapper list trackers), or 'all'")
	},
	"workload": func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.workload, "workload", "429.mcf", "benign workload: a name (dapper list workloads), 'rep' or 'all'; batch takes a comma list")
	},
	"attack": func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.attack, "attack", "refresh", "attack kind, or 'none' (four benign copies); batch takes a comma list")
	},
	"mode": func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.mode, "mode", "VRR-BR1", "mitigation mode (VRR-BR1|VRR-BR2|RFMsb|DRFMsb); batch takes a comma list")
	},
	"nrh": func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.nrh, "nrh", "500", "RowHammer threshold; sweeps take a comma list")
	},
	"window": func(fs *flag.FlagSet, c *cli) {
		fs.Float64Var(&c.window, "window", 0, "in-sim telemetry window in microseconds (0 = off)")
	},
	"warmup": func(fs *flag.FlagSet, c *cli) {
		fs.Float64Var(&c.warmup, "warmup", 100, "warmup window in microseconds")
	},
	"measure": func(fs *flag.FlagSet, c *cli) {
		fs.Float64Var(&c.measure, "measure", 400, "measurement window in microseconds")
	},
	"rows-per-bank": func(fs *flag.FlagSet, c *cli) {
		fs.UintVar(&c.rowsPerBank, "rows-per-bank", 0, "override rows per bank (0 = full 64K)")
	},
	"check": func(fs *flag.FlagSet, c *cli) {
		fs.BoolVar(&c.check, "check", false, "turn the subcommand's correctness gates into a non-zero exit")
	},
	"exp": func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.exp, "exp", "all", "experiment id (dapper list experiments) or 'all'")
	},
	"audit": func(fs *flag.FlagSet, c *cli) {
		fs.BoolVar(&c.audit, "audit", false, "attach the shadow security oracle to every run and print each tracker's verdict")
	},
	"count-injected": func(fs *flag.FlagSet, c *cli) {
		fs.BoolVar(&c.countInjected, "count-injected", false, "charge tracker counter traffic in the oracle ledger")
	},
	"objective": func(fs *flag.FlagSet, c *cli) {
		fs.StringVar(&c.objective, "objective", "perf", "search objective: perf (worst slowdown) or escapes (security-guarantee violations via the shadow oracle)")
	},
	"budget": func(fs *flag.FlagSet, c *cli) {
		fs.IntVar(&c.budget, "budget", 32, "candidate evaluations per tracker")
	},
}

// usageError is a bad invocation: the command exits 2 instead of 1.
type usageError struct{ error }

// flagErr reports a bad value of flag name.
func flagErr(name string, err error) error {
	return usageError{fmt.Errorf("-%s: %w", name, err)}
}

// cycles converts microsecond flag name to DRAM cycles. A negative
// value, or a non-zero one below one cycle, is an error rather than a
// silent zero; with positive, zero is an error too. So is a value whose
// cycle count would reach dram.Never, rather than a wrapped one.
func cycles(name string, us float64, positive bool) (dram.Cycle, error) {
	n := us * 1e3 * dram.CyclesPerNs
	if !(us >= 0) || (us != 0 || positive) && n < 1 {
		want := "0 or at least one cycle"
		if positive {
			want = "at least one cycle"
		}
		return 0, flagErr(name, fmt.Errorf("must be %s (%.2g microseconds), got %g", want, 1e-3/dram.CyclesPerNs, us))
	}
	if !(n+0.5 < float64(dram.Never)) {
		return 0, flagErr(name, fmt.Errorf("must be below %.3g microseconds, got %g", float64(dram.Never)/1e3/dram.CyclesPerNs, us))
	}
	return dram.US(us), nil
}

// splitList splits a comma-list flag value.
func splitList(s string) []string {
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// parseList applies parse to every element of a comma-list flag and
// names the flag in the first error.
func parseList[T any](name, value string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, s := range splitList(value) {
		v, err := parse(s)
		if err != nil {
			return nil, flagErr(name, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// only resolves a list flag that this subcommand takes one value of.
func only[T any](name string, list func() ([]T, error)) (T, error) {
	var zero T
	vs, err := list()
	if err != nil {
		return zero, err
	}
	if len(vs) != 1 {
		return zero, flagErr(name, fmt.Errorf("takes one value here, got %d", len(vs)))
	}
	return vs[0], nil
}

// trackerIDs resolves -tracker: a comma list of ids, or "all".
func (c *cli) trackerIDs() ([]string, error) {
	if c.tracker == "all" {
		return exp.KnownTrackers(), nil
	}
	return parseList("tracker", c.tracker, func(id string) (string, error) {
		_, err := exp.TrackerName(id)
		return id, err
	})
}

// nrhs resolves -nrh. A threshold must be a positive integer: 0 would
// reach the trackers' constructors and fail inside a worker.
func (c *cli) nrhs() ([]uint32, error) {
	return parseList("nrh", c.nrh, func(s string) (uint32, error) {
		v, err := strconv.ParseUint(s, 10, 32)
		if err != nil || v == 0 {
			return 0, fmt.Errorf("bad value %q (want a positive integer)", s)
		}
		return uint32(v), nil
	})
}

// modes resolves -mode.
func (c *cli) modes() ([]rh.MitigationMode, error) {
	return parseList("mode", c.mode, rh.ParseMode)
}

// attacks resolves -attack: a named kind, or "none". No flag names a
// point of the parametric space, so "parametric" is refused instead of
// running the all-zero point.
func (c *cli) attacks() ([]attack.Kind, error) {
	return parseList("attack", c.attack, func(s string) (attack.Kind, error) {
		k, err := attack.ParseKind(s)
		if err == nil && k == attack.Parametric {
			err = fmt.Errorf("%q takes a point no flag can name (dapper adversary searches that space)", s)
		}
		return k, err
	})
}

// workloads resolves -workload: each comma-list element is a workload
// name, "rep" (the representative 12) or "all".
func (c *cli) workloads() ([]workloads.Workload, error) {
	var out []workloads.Workload
	for _, sel := range splitList(c.workload) {
		ws, err := exp.ResolveWorkloads(sel)
		if err != nil {
			return nil, flagErr("workload", err)
		}
		out = append(out, ws...)
	}
	return out, nil
}

// resolveEngine resolves -engine.
func (c *cli) resolveEngine() (sim.Engine, error) {
	e, err := sim.ParseEngine(c.engine)
	if err != nil {
		return e, flagErr("engine", err)
	}
	return e, nil
}

// resolveProfile resolves -profile and applies -engine, -seed and
// -attr to it.
func (c *cli) resolveProfile() (exp.Profile, error) {
	p, err := exp.ProfileByName(c.profile)
	if err != nil {
		return p, flagErr("profile", err)
	}
	if p.Engine, err = c.resolveEngine(); err != nil {
		return p, err
	}
	p.Seed = c.seed
	p.Attribution = c.attr
	return p, nil
}
