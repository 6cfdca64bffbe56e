// Package analysis is the project's static-contract checker: a small,
// dependency-free re-implementation of the golang.org/x/tools
// go/analysis vocabulary (Analyzer, Pass, Diagnostic) plus the three
// DAPPER-specific analyzers that mechanize conventions every other
// package relies on but, before this suite, only comments enforced:
//
//   - nodeterm: the simulation core must be a pure function of its
//     inputs — no wall clock, no global math/rand, no environment
//     reads, no goroutines (see nodeterm.go for the package tiers and
//     the //dapper:wallclock escape hatch).
//   - maporder: bytes that reach a sink, a hash, or an error message
//     must never depend on Go's randomized map iteration order (see
//     maporder.go for the sorted-keys idiom it recognizes).
//   - hotpath: functions annotated //dapper:hot (the controller event
//     sink and core probe paths whose detached cost the bench gate
//     keeps under 2%) must not allocate, format, or box into
//     interfaces.
//
// The suite is compiled into cmd/dapper-lint, which runs both as a
// standalone multichecker (`go run ./cmd/dapper-lint ./...`, what
// `make lint` does) and as a `go vet -vettool=` unit checker. The
// x/tools module is deliberately not imported: the framework here is
// built only on the standard library's go/ast, go/types and
// go/importer, with package loading delegated to `go list -export`
// (internal/analysis/load), so linting works in the same hermetic
// build environment as the simulator itself.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. It mirrors the x/tools
// go/analysis.Analyzer surface that the drivers here need: a name that
// prefixes diagnostics, a doc sentence, and a Run function applied to
// one type-checked package at a time. Analyzers in this suite are
// stateless across passes and never exchange facts, which is what
// keeps the driver trivial.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one type-checked package through one analyzer. Files
// holds only non-test sources: the contracts below bind production
// code, while tests remain free to spawn goroutines, read clocks and
// range over maps at will.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// PkgPath is the package's import path ("dapper/internal/sim").
	// Fixture packages loaded by analysistest use their testdata-relative
	// path instead, which is why analyzers take their package scoping as
	// configuration rather than hard-coding module paths.
	PkgPath string

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: sprintf(format, args...)})
}

// Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a resolved diagnostic as drivers print and tests match
// it: position translated through the file set and stamped with the
// analyzer that produced it.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// RunAnalyzer applies one analyzer to one loaded package and returns
// its findings sorted by position. It is the single entry point both
// drivers (cmd/dapper-lint and analysistest) funnel through.
func RunAnalyzer(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, pkgPath string) ([]Finding, error) {
	var out []Finding
	pass := &Pass{
		Analyzer: a,
		Fset:     fset,
		Files:    files,
		Pkg:      pkg,
		Info:     info,
		PkgPath:  pkgPath,
		report: func(d Diagnostic) {
			out = append(out, Finding{
				Analyzer: a.Name,
				Pos:      fset.Position(d.Pos),
				Message:  d.Message,
			})
		},
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	sortFindings(out)
	return out, nil
}
