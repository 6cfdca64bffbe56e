// Command dapper-lint runs the project's static-contract analyzers
// (internal/analysis: nodeterm, maporder, hotpath)
// over Go packages. It has two personalities:
//
//   - standalone multichecker (what `make lint` uses):
//     dapper-lint [packages...]        # default ./...
//
//   - `go vet` tool, speaking cmd/go's unit-checker protocol:
//     go vet -vettool=$(pwd)/bin/dapper-lint ./...
//
// The vettool mode is detected by the single *.cfg argument cmd/go
// passes per package (plus the -V=full identification handshake).
// Exit status: 0 clean, 1 usage/internal error, 2 findings.
package main

import (
	"encoding/gob"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dapper/internal/analysis"
	"dapper/internal/analysis/load"
)

func main() {
	args := os.Args[1:]
	// cmd/go probes vet tools before first use: -V=full identifies the
	// tool for build caching, -flags asks which analyzer flags it
	// accepts (none here — JSON empty list).
	for _, a := range args {
		switch a {
		case "-V=full", "-V":
			fmt.Println("dapper-lint version devel-1")
			return
		case "-flags":
			fmt.Println("[]")
			return
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0]))
	}
	os.Exit(standalone(args))
}

func standalone(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	total := 0
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			fmt.Fprintf(os.Stderr, "dapper-lint: %s does not type-check: %v\n", pkg.PkgPath, pkg.TypeErrors[0])
			return 1
		}
		for _, a := range analysis.All() {
			findings, err := analysis.RunAnalyzer(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, pkg.PkgPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dapper-lint: %s: %s: %v\n", a.Name, pkg.PkgPath, err)
				return 1
			}
			for _, f := range findings {
				fmt.Printf("%s: %s: %s\n", f.Pos, f.Analyzer, f.Message)
				total++
			}
		}
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "dapper-lint: %d finding(s)\n", total)
		return 2
	}
	return 0
}

// vetConfig is the JSON cmd/go writes for each package when driving a
// -vettool (the unit-checker protocol).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "dapper-lint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// This suite exchanges no facts between packages, but cmd/go
	// requires the .vetx output to exist to cache the run.
	defer writeVetx(cfg.VetxOutput)
	if cfg.VetxOnly {
		return 0
	}

	// The contracts bind production code only; test files (and test
	// variants of packages, which cmd/go vets separately) are exempt.
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return 0
	}

	imp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tconf := types.Config{Importer: imp}
	pkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "dapper-lint: %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	// cmd/go vets test variants under paths like "p [p.test]"; map them
	// back to the base path so the tier table matches.
	pkgPath := cfg.ImportPath
	if i := strings.Index(pkgPath, " ["); i >= 0 {
		pkgPath = pkgPath[:i]
	}

	total := 0
	for _, a := range analysis.All() {
		findings, err := analysis.RunAnalyzer(a, fset, files, pkg, info, pkgPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dapper-lint: %s: %v\n", a.Name, err)
			return 1
		}
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "%s: %s: %s\n", relPos(f.Pos, cfg.Dir), f.Analyzer, f.Message)
			total++
		}
	}
	if total > 0 {
		return 2
	}
	return 0
}

func relPos(pos token.Position, dir string) string {
	if dir != "" {
		if rel, err := filepath.Rel(dir, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
	}
	return pos.String()
}

// writeVetx emits an empty (but valid) facts file.
func writeVetx(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		return
	}
	defer f.Close()
	gob.NewEncoder(f).Encode([]string{})
}
