package analysis

import (
	"go/ast"
	"strings"
)

// Tier classifies a package under the determinism contract.
type Tier int

const (
	// TierNone exempts a package entirely (examples, this linter).
	TierNone Tier = iota
	// TierHarness covers orchestration code that may use goroutines
	// (the worker pool is the point) but must still justify every wall
	// clock read and environment access: those leak into trace files
	// and report headers, never into Results.
	TierHarness
	// TierCore covers the simulation core: a Result must be a pure
	// function of (Config, traces, seed), byte-identical across engines,
	// processes and machines. No wall clock, no global math/rand, no
	// environment, and no goroutines at all — single-threaded execution
	// is what makes event/cycle equivalence and the content-addressed
	// cache sound.
	TierCore
)

// NodetermConfig scopes the analyzer: TierOf maps an import path to
// its tier. Fixture tests supply their own mapping; production uses
// DapperTiers.
type NodetermConfig struct {
	TierOf func(pkgPath string) Tier
}

// DapperTiers is the production package classification. Every package
// in the module must be mentioned here (or covered by a prefix);
// unknown dapper packages default to TierCore so a new package is
// born under the strict contract rather than silently exempt.
func DapperTiers(pkgPath string) Tier {
	switch {
	case !strings.HasPrefix(pkgPath, "dapper/"):
		return TierNone
	case pkgPath == "dapper/internal/analysis",
		strings.HasPrefix(pkgPath, "dapper/internal/analysis/"),
		strings.HasPrefix(pkgPath, "dapper/examples/"):
		return TierNone
	case pkgPath == "dapper/internal/harness",
		pkgPath == "dapper/internal/exp",
		pkgPath == "dapper/internal/cache",
		pkgPath == "dapper/internal/diag",
		pkgPath == "dapper/internal/goldentest",
		strings.HasPrefix(pkgPath, "dapper/cmd/"):
		return TierHarness
	default:
		// sim, mem, cpu, rh, core, trackers/*, attack, mix, secaudit,
		// telemetry, adversary, dram, sketch, llbc, workloads, stats,
		// energy, analytic — and any future package until reclassified.
		return TierCore
	}
}

// wallclockFuncs are the time package entry points that read or
// schedule against the wall clock. Pure arithmetic on time.Duration
// values remains allowed everywhere.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// envFuncs read the process environment, an input the Descriptor
// cache key cannot see.
var envFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
}

// NewNodeterm builds the determinism analyzer over a tier mapping.
func NewNodeterm(cfg NodetermConfig) *Analyzer {
	a := &Analyzer{
		Name: "nodeterm",
		Doc:  "forbid wall-clock reads, global math/rand, environment access and (in the sim core) goroutines",
	}
	a.Run = func(pass *Pass) error {
		tier := cfg.TierOf(pass.PkgPath)
		if tier == TierNone {
			return nil
		}
		for _, file := range pass.Files {
			anns := ParseAnnotations(pass.Fset, file)
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					if tier == TierCore {
						pass.Reportf(n.Pos(), "goroutine spawned in deterministic core package %s: the sim core is single-threaded by contract (engine equivalence and result caching depend on it)", pass.PkgPath)
					}
				case *ast.CallExpr:
					checkNodetermCall(pass, file, anns, n)
				}
				return true
			})
		}
		return nil
	}
	return a
}

func checkNodetermCall(pass *Pass, file *ast.File, anns *Annotations, call *ast.CallExpr) {
	pkg, name, ok := pkgFunc(pass.Info, call)
	if !ok {
		return
	}
	switch {
	case pkg == "time" && wallclockFuncs[name]:
		covered, justified := suppression(pass, file, anns, call, AnnWallclock)
		switch {
		case covered && justified:
		case covered:
			pass.Reportf(call.Pos(), "//dapper:wallclock annotation needs a one-line justification after the marker")
		default:
			pass.Reportf(call.Pos(), "time.%s in %s: deterministic code must not read the wall clock (annotate the line or function with //dapper:wallclock <why> if this is an intentional elapsed-time measurement)", name, pass.PkgPath)
		}
	case (pkg == "math/rand" || pkg == "math/rand/v2") && !isRandCtor(name):
		pass.Reportf(call.Pos(), "global %s.%s: shared global rand state is seeded per process, not per run — thread a seeded *rand.Rand through the config instead", pkg, name)
	case pkg == "os" && envFuncs[name]:
		covered, justified := suppression(pass, file, anns, call, AnnEnv)
		switch {
		case covered && justified:
		case covered:
			pass.Reportf(call.Pos(), "//dapper:env annotation needs a one-line justification after the marker")
		default:
			pass.Reportf(call.Pos(), "os.%s in %s: the environment is invisible to the Descriptor cache key; pass the value through configuration (or annotate with //dapper:env <why>)", name, pass.PkgPath)
		}
	}
}

// isRandCtor reports functions of math/rand{,/v2} that construct
// explicitly-seeded generators — the sanctioned path.
func isRandCtor(name string) bool {
	switch name {
	case "New", "NewSource", "NewZipf", "NewChaCha8", "NewPCG":
		return true
	}
	return false
}
