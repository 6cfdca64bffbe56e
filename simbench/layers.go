package main

import "strings"

// Layers are the parts of the simulator the traced run folds host CPU
// time into, in report order. Each is one or more packages of the
// dapper module (see layerOf); gc collects samples with no dapper frame
// at all (garbage collection, the scheduler, the profiler itself) and
// bench the benchmark's own frames (result hashing, pass bookkeeping).
var layers = []string{
	"cpu", "cache", "dram", "mem", "core", "llbc", "workloads", "attack",
	"sim", "exp", "harness", "gc", "bench",
}

// packageLayer maps every top-level package under dapper/internal to
// its layer; subpackages inherit their parent's entry. layers_test.go
// checks that each package in the module maps to exactly one layer, so
// a new package cannot silently drop out of the fold.
var packageLayer = map[string]string{
	"cpu":   "cpu",
	"cache": "cache",
	"dram":  "dram",
	"mem":   "mem",
	// The tracker layer: DAPPER-S/H (core), the baseline trackers, the
	// tracker interface and the data structures trackers are built from,
	// and the shadow security oracle that observes the same ACT stream.
	"core":     "core",
	"trackers": "core",
	"rh":       "core",
	"flatmap":  "core",
	"sketch":   "core",
	"secaudit": "core",
	"llbc":     "llbc",
	// Trace generators.
	"workloads": "workloads",
	"mix":       "workloads",
	"attack":    "attack",
	"adversary": "attack",
	// The time-skip loop, hierarchy and its in-sim probes.
	"sim":       "sim",
	"telemetry": "sim",
	// Request expansion, figure generators and the models they tabulate.
	"exp":      "exp",
	"analytic": "exp",
	"energy":   "exp",
	"stats":    "exp",
	// Pool, cache and sinks, plus the live views served over them.
	"harness": "harness",
	"diag":    "harness",
	"serve":   "harness",
	// Build- and test-time tooling, never linked into a simulation.
	"analysis":   "tools",
	"goldentest": "tools",
}

// benchPackage is this benchmark's own import path.
const benchPackage = "dapper/simbench"

// layerOf returns the layer of a dapper package path, or "" for a path
// outside the module or an internal package the map does not know.
func layerOf(pkg string) string {
	if pkg == benchPackage {
		return "bench"
	}
	rest, ok := strings.CutPrefix(pkg, "dapper/internal/")
	if !ok {
		return ""
	}
	top, _, _ := strings.Cut(rest, "/")
	return packageLayer[top]
}

// funcPackage extracts the package path from a symbol name as the Go
// runtime prints it, e.g. "dapper/internal/mem.(*Controller).pick" →
// "dapper/internal/mem". Type arguments of generic instantiations may
// themselves contain paths, so the name is cut at the first '[' or '('
// before looking for the package's dot.
func funcPackage(name string) string {
	if i := strings.IndexAny(name, "[("); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}
