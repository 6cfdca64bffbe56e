// Contracts: the source rules that keep every Result a pure function
// of its spec, checked over the module's non-test files so that a
// violation fails `go test` with its position. Each check also runs
// over fixtures under testdata/contracts, whose `// want` comment names
// the finding expected on its line.
package dapper_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// tier classifies a package under the determinism contract.
type tier int

const (
	// tierNone exempts a package (examples, anything outside the module).
	tierNone tier = iota
	// tierHarness is orchestration: goroutines are allowed (the worker
	// pool is the point), but a wall-clock read needs a justified
	// //dapper:wallclock marker, and the environment is off limits.
	tierHarness
	// tierCore is the simulation core: no wall clock, global math/rand,
	// environment or goroutines, since single-threaded execution is
	// what makes event/cycle equivalence and the result cache sound.
	tierCore
)

// tierOf is the production tier table. A package it does not name is
// core, so a new package is born under the strict contract.
func tierOf(pkg string) tier {
	switch {
	case !strings.HasPrefix(pkg, "dapper/"), strings.HasPrefix(pkg, "dapper/examples/"):
		return tierNone
	case pkg == "dapper/internal/harness", pkg == "dapper/internal/exp",
		pkg == "dapper/internal/diag", pkg == "dapper/internal/goldentest",
		strings.HasPrefix(pkg, "dapper/cmd/"):
		return tierHarness
	}
	return tierCore
}

func TestContractTiers(t *testing.T) {
	cases := []struct {
		pkg  string
		want tier
	}{
		{"dapper/internal/sim", tierCore},
		{"dapper/internal/mem", tierCore},
		{"dapper/internal/cache", tierCore}, // the simulated LLC, not the result cache
		{"dapper/internal/trackers/dapper", tierCore},
		{"dapper/internal/telemetry", tierCore},
		{"dapper/internal/adversary", tierCore},
		{"dapper/internal/sketch", tierCore},
		{"dapper/internal/shiny", tierCore}, // a brand-new package
		{"dapper/internal/harness", tierHarness},
		{"dapper/internal/exp", tierHarness},
		{"dapper/cmd/dapper", tierHarness},
		{"dapper/examples/quickstart", tierNone},
		{"fmt", tierNone},
	}
	for _, c := range cases {
		if got := tierOf(c.pkg); got != c.want {
			t.Errorf("tierOf(%q) = %d, want %d", c.pkg, got, c.want)
		}
	}
}

func TestContractNodeterm(t *testing.T) {
	for _, fx := range []struct {
		name string
		tier tier
	}{{"nodeterm_core", tierCore}, {"nodeterm_harness", tierHarness}, {"nodeterm_exempt", tierNone}} {
		fset := token.NewFileSet()
		files := parseFixture(t, fset, fx.name)
		matchWants(t, fset, files, nodeterm(fset, files, fx.name, fx.tier))
	}
	for _, p := range listModule(t).pkgs {
		fset := token.NewFileSet()
		for _, f := range nodeterm(fset, parseFiles(t, fset, p.files), p.path, tierOf(p.path)) {
			t.Errorf("%s: %s", f.pos, f.msg)
		}
	}
}

func TestContractMaporder(t *testing.T) {
	mod := listModule(t)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := mod.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	check := func(pkg string, files []*ast.File) []finding {
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
		if _, err := (&types.Config{Importer: imp}).Check(pkg, fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", pkg, err)
		}
		return maporder(fset, files, info)
	}
	files := parseFixture(t, fset, "maporder")
	matchWants(t, fset, files, check("maporder", files))
	for _, p := range mod.pkgs {
		for _, f := range check(p.path, parseFiles(t, fset, p.files)) {
			t.Errorf("%s: %s", f.pos, f.msg)
		}
	}
}

// racePkgs are the packages whose test binary can start a goroutine:
// their files or tests hold a go statement or a t.Parallel call, or
// their test binary links, by an import of the package or of its tests,
// a package whose non-test files hold a go statement. Only these can
// race, so `make test-race` runs exactly this list (RACE_PKGS in the
// Makefile), and `make test` runs every test plain.
var racePkgs = []string{
	"dapper/cmd/dapper",         // via harness
	"dapper/internal/adversary", // via harness
	"dapper/internal/cache",     // its tests share the spare-array free list
	"dapper/internal/core",      // its tests share the partner and group memos
	"dapper/internal/diag",      // the debug server
	"dapper/internal/exp",       // via harness
	"dapper/internal/harness",   // the worker pool, its lockstep replays and the build hash
}

func TestContractRace(t *testing.T) {
	const format = "{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \" \"}}\t{{join .TestGoFiles \" \"}} {{join .XTestGoFiles \" \"}}\t{{join .Deps \" \"}}"
	out, err := exec.Command("go", "list", "-test", "-f", format, "./...").Output()
	if err != nil {
		t.Fatalf("go list -test: %v", err)
	}
	code := map[string]string{}   // package → its non-test files' first goroutine start
	tests := map[string]string{}  // package → its tests' first goroutine start
	bins := map[string][]string{} // package with tests → every package its test binary links
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		switch pkg := f[0]; {
		case strings.HasSuffix(pkg, ".test"):
			bins[strings.TrimSuffix(pkg, ".test")] = strings.Fields(f[4])
		case !strings.Contains(pkg, " "): // the package itself, not a test variant
			code[pkg] = goroutineStart(t, f[1], strings.Fields(f[2]))
			tests[pkg] = goroutineStart(t, f[1], strings.Fields(f[3]))
		}
	}
	for _, pkg := range slices.Sorted(maps.Keys(bins)) {
		why := tests[pkg]
		for _, dep := range bins[pkg] {
			dep, _, _ = strings.Cut(dep, " ") // "p [q.test]" is p recompiled for q's tests
			if why == "" && code[dep] != "" {
				why = "links " + dep + ": " + code[dep]
			}
		}
		switch listed := slices.Contains(racePkgs, pkg); {
		case listed && why == "":
			t.Errorf("racePkgs names %s, but its test binary starts no goroutine", pkg)
		case !listed && why != "":
			t.Errorf("%s's test binary can start a goroutine (%s), so racePkgs must name it", pkg, why)
		}
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var raced []string
	for _, line := range strings.Split(string(mk), "\n") {
		if dirs, ok := strings.CutPrefix(line, "RACE_PKGS ="); ok {
			for _, dir := range strings.Fields(dirs) {
				raced = append(raced, path.Join("dapper", dir))
			}
		}
	}
	if slices.Sort(raced); !slices.Equal(raced, racePkgs) {
		t.Errorf("Makefile RACE_PKGS is %v, want racePkgs %v", raced, racePkgs)
	}
}

// goroutineStart is the position of the first go statement or
// t.Parallel call in files (names in dir), or "" if they hold none.
func goroutineStart(t *testing.T, dir string, names []string) string {
	t.Helper()
	fset := token.NewFileSet()
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var at ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				at = n
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Parallel" && len(n.Args) == 0 {
					at = n
				}
			}
			return at == nil
		})
		if at != nil {
			return fset.Position(at.Pos()).String()
		}
	}
	return ""
}

// inlined are the hot-path methods whose comments promise they inline:
// the engine reads every component's cached wake on each loop
// iteration, a detached sink must cost one branch per event, and every
// stepped cycle charges the core's CPI stack.
var inlined = []string{
	"(*Controller).emit",
	"(*Controller).NextEvent",
	"(*Controller).Wake",
	"(*Core).NextEvent",
	"(*Core).Wake",
	"(*Core).account",
}

func TestContractInline(t *testing.T) {
	out, err := exec.Command("go", "build", "-gcflags=-m", "./internal/mem", "./internal/cpu").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, fn := range inlined {
		if !strings.Contains(string(out), ": can inline "+fn+"\n") {
			t.Errorf("the compiler no longer inlines %s", fn)
		}
	}
}

// module is what one `go list -export -deps ./...` says about the
// module: its packages' non-test files, and the export data of every
// package they import, standard library included.
type module struct {
	pkgs    []modPkg
	exports map[string]string // import path → export data file
}

type modPkg struct {
	path  string
	files []string
}

var loadModule = sync.OnceValues(func() (*module, error) {
	// Packages ./... matches print their directory and non-test files
	// after the export file; dependencies only the export file.
	const format = "{{.ImportPath}}\t{{.Export}}{{if not .DepOnly}}\t{{.Dir}}{{range .GoFiles}}\t{{.}}{{end}}{{end}}"
	out, err := exec.Command("go", "list", "-export", "-deps", "-f", format, "./...").Output()
	if ee, ok := err.(*exec.ExitError); ok {
		return nil, fmt.Errorf("go list: %v\n%s", err, ee.Stderr)
	} else if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	mod := &module{exports: map[string]string{}}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		mod.exports[f[0]] = f[1]
		if len(f) > 2 {
			p := modPkg{path: f[0]}
			for _, name := range f[3:] {
				p.files = append(p.files, filepath.Join(f[2], name))
			}
			mod.pkgs = append(mod.pkgs, p)
		}
	}
	return mod, nil
})

func listModule(t *testing.T) *module {
	t.Helper()
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func parseFiles(t *testing.T, fset *token.FileSet, paths []string) []*ast.File {
	t.Helper()
	var files []*ast.File
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

func parseFixture(t *testing.T, fset *token.FileSet, name string) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "contracts", name, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixture files for %s (%v)", name, err)
	}
	return parseFiles(t, fset, paths)
}

// finding is one contract violation.
type finding struct {
	pos token.Position
	msg string
}

func found(fset *token.FileSet, n ast.Node, format string, args ...any) finding {
	return finding{fset.Position(n.Pos()), fmt.Sprintf(format, args...)}
}

var wantRE = regexp.MustCompile("^// want `([^`]*)`")

// matchWants requires one finding on each line carrying a `// want`
// comment, matching its backquoted regexp, and no other finding.
func matchWants(t *testing.T, fset *token.FileSet, files []*ast.File, got []finding) {
	t.Helper()
	var lines []token.Position                   // file and line of each want, in order
	wants := map[token.Position]*regexp.Regexp{} // by line; deleted once matched
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := wantRE.FindStringSubmatch(c.Text); m != nil {
					p := fset.Position(c.Slash)
					line := token.Position{Filename: p.Filename, Line: p.Line}
					lines = append(lines, line)
					wants[line] = regexp.MustCompile(m[1])
				}
			}
		}
	}
	for _, g := range got {
		line := token.Position{Filename: g.pos.Filename, Line: g.pos.Line}
		if re := wants[line]; re == nil || !re.MatchString(g.msg) {
			t.Errorf("%s: unexpected finding: %s", g.pos, g.msg)
		}
		delete(wants, line)
	}
	for _, line := range lines {
		if re, ok := wants[line]; ok {
			t.Errorf("%s: no finding matched %q", line, re)
		}
	}
}

// --- nodeterm ---

// wallclockFuncs read or schedule against the wall clock; arithmetic on
// time.Duration stays allowed everywhere.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// randAllowed are the math/rand{,/v2} names that are not the global
// generator: the constructors of explicitly seeded generators and the
// types they return.
var randAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true, "PCG": true, "ChaCha8": true,
}

// envFuncs read the process environment, an input the Descriptor cache
// key cannot see.
var envFuncs = map[string]bool{"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true}

// nodeterm scans one package's files with the parser alone. A banned
// function is any selector on an import name (renamed imports
// included) that the file does not shadow, so a method value such as
// `now := time.Now` is caught as well as a call.
func nodeterm(fset *token.FileSet, files []*ast.File, pkg string, tr tier) []finding {
	if tr == tierNone {
		return nil
	}
	var out []finding
	for _, f := range files {
		imports := map[string]string{} // local name → import path
		for _, spec := range f.Imports {
			p := strings.Trim(spec.Path.Value, "\"`")
			name := path.Base(strings.TrimSuffix(p, "/v2")) // math/rand/v2 is package rand
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = p
		}
		// A `//dapper:wallclock <why>` marker covers its own line, the
		// line below and, in a doc comment, the whole function.
		marks := map[int][]string{}                // line → justifications
		groups := map[*ast.CommentGroup][]string{} // comment group → justifications
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//dapper:wallclock")
				if !ok || rest != "" && rest[0] != ' ' {
					continue
				}
				line, why := fset.Position(c.Slash).Line, strings.TrimSpace(rest)
				marks[line] = append(marks[line], why)
				groups[cg] = append(groups[cg], why)
			}
		}
		for _, decl := range f.Decls {
			var docMarks []string
			if fd, ok := decl.(*ast.FuncDecl); ok {
				docMarks = groups[fd.Doc]
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					if tr == tierCore {
						out = append(out, found(fset, n, "goroutine spawned in deterministic core package %s: the sim core is single-threaded by contract (engine equivalence and result caching depend on it)", pkg))
					}
				case *ast.SelectorExpr:
					// A nil Obj means the parser found no declaration in
					// this file: the identifier names the import.
					id, ok := n.X.(*ast.Ident)
					if !ok || id.Obj != nil {
						return true
					}
					name := n.Sel.Name
					switch p := imports[id.Name]; {
					case p == "time" && wallclockFuncs[name]:
						line := fset.Position(n.Pos()).Line
						why := slices.Concat(marks[line-1], marks[line], docMarks)
						switch {
						case slices.ContainsFunc(why, func(s string) bool { return s != "" }): // justified
						case len(why) > 0:
							out = append(out, found(fset, n, "//dapper:wallclock annotation needs a one-line justification after the marker"))
						default:
							out = append(out, found(fset, n, "time.%s in %s: deterministic code must not read the wall clock (annotate the line or function with //dapper:wallclock <why> if this is an intentional elapsed-time measurement)", name, pkg))
						}
					case (p == "math/rand" || p == "math/rand/v2") && !randAllowed[name]:
						out = append(out, found(fset, n, "global %s.%s: shared global rand state is seeded per process, not per run — thread a seeded *rand.Rand through the config instead", p, name))
					case p == "os" && envFuncs[name]:
						out = append(out, found(fset, n, "os.%s in %s: the environment is invisible to the Descriptor cache key; pass the value through configuration", name, pkg))
					}
				}
				return true
			})
		}
	}
	return out
}

// --- maporder ---

// serializingMethods move bytes toward a writer, hash or encoder.
var serializingMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "EncodeToken": true, "Printf": true, "Print": true,
	"Println": true, "Fprintf": true, "Sum": true,
}

// maporder flags `for range` over a map whose body lets the iteration
// order reach bytes: any fmt call (including the fmt.Errorf that
// decides which error a caller sees), Write/Encode-shaped method calls,
// channel sends, and appends to a slice declared outside the loop. The
// collect-then-sort idiom passes: an append whose slice a sort.* or
// slices.* call mentions later in the loop's enclosing block.
func maporder(fset *token.FileSet, files []*ast.File, info *types.Info) []finding {
	var out []finding
	for _, f := range files {
		parents := map[ast.Stmt]*ast.BlockStmt{}
		ast.Inspect(f, func(n ast.Node) bool {
			if b, ok := n.(*ast.BlockStmt); ok {
				for _, s := range b.List {
					parents[s] = b
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, isMap := info.Types[rng.X].Type.Underlying().(*types.Map); !isMap {
				return true
			}
			ast.Inspect(rng.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SendStmt:
					out = append(out, found(fset, n, "channel send inside map iteration: receivers observe Go's randomized map order; iterate sorted keys instead"))
				case *ast.CallExpr:
					if pkg, name := pkgFunc(info, n); pkg == "fmt" {
						out = append(out, found(fset, n, "fmt.%s inside map iteration: output (or the first error returned) depends on randomized map order; iterate sorted keys instead", name))
					} else if sel, ok := n.Fun.(*ast.SelectorExpr); ok && pkg == "" && serializingMethods[sel.Sel.Name] {
						out = append(out, found(fset, n, "%s call inside map iteration feeds a writer/hash/encoder in randomized map order; iterate sorted keys instead", sel.Sel.Name))
					} else if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
						obj := rootObject(info, n.Args[0])
						declaredInLoop := obj != nil && obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()
						if obj != nil && !declaredInLoop && !sortedAfter(info, parents[rng], rng, obj) {
							out = append(out, found(fset, n, "append to %s (declared outside the loop) inside map iteration: the slice inherits randomized map order; collect keys and sort them first (a sort.*/slices.* call on %[1]s later in the same block is recognized)", obj.Name()))
						}
					}
				}
				return true
			})
			return true
		})
	}
	return out
}

// pkgFunc resolves a call of a package-level function through an
// import (fmt.Println, sort.Strings) to its package path and name, and
// anything else to "".
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkg, name string) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				return pn.Imported().Path(), sel.Sel.Name
			}
		}
	}
	return "", ""
}

// rootObject resolves the variable (or field) an append or sort call
// touches, unwrapping slicing and indexing so that
// `sort.Ints(keys[1:])` still resolves to keys.
func rootObject(info *types.Info, expr ast.Expr) types.Object {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	case *ast.SliceExpr:
		return rootObject(info, e.X)
	case *ast.IndexExpr:
		return rootObject(info, e.X)
	}
	return nil
}

// sortedAfter reports whether a sort.* or slices.* call mentioning obj
// follows rng in its enclosing block.
func sortedAfter(info *types.Info, block *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	if block == nil {
		return false
	}
	sorted := false
	for _, stmt := range block.List[slices.Index(block.List, ast.Stmt(rng))+1:] {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if pkg, _ := pkgFunc(info, call); pkg == "sort" || pkg == "slices" {
					sorted = sorted || slices.ContainsFunc(call.Args, func(a ast.Expr) bool { return rootObject(info, a) == obj })
				}
			}
			return !sorted
		})
	}
	return sorted
}
