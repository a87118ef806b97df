// Package framework is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis API surface that the lfcheck suite needs.
//
// The container this repository builds in has no module proxy access, so
// the canonical go/analysis machinery cannot be vendored. The subset here
// keeps the same shape — an Analyzer value with a Run(*Pass) function that
// reports Diagnostics — so each checker under internal/analysis can be
// ported to the real framework by swapping one import when the dependency
// becomes available. Package loading is built on `go list -json -deps` plus
// go/parser and go/types, type-checking the dependency closure from source
// (the approach of go/internal/srcimporter).
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"valois/internal/analysis/framework/cfg"
)

// Analyzer describes one static check, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow directives.
	// It must be a valid Go identifier.
	Name string

	// Doc is the analyzer's documentation; the first line is used as a
	// summary in the command's usage text.
	Doc string

	// FactTypes lists the Fact types this analyzer exports or imports.
	// A non-empty list tells the driver the analyzer is interprocedural:
	// the in-module dependency closure of the requested packages is then
	// analyzed bottom-up (dependencies first) so facts flow from a package
	// to its importers.
	FactTypes []Fact

	// Run applies the analyzer to a package.
	Run func(*Pass) (any, error)
}

func (a *Analyzer) String() string { return a.Name }

// Pass provides one analyzer with the parsed, type-checked syntax of one
// package, mirroring analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Facts is the fact store shared by every pass of one run; when nil,
	// facts are neither exported nor imported.
	Facts *FactStore

	// Report delivers a diagnostic to the driver.
	Report func(Diagnostic)

	// cfgs memoizes per-function control-flow graphs. The driver shares
	// one cache across every analyzer's pass over a package; when unset —
	// e.g. under analysistest — FuncCFG creates a pass-local one on first
	// use.
	cfgs *cfg.Cache
}

// FuncCFG returns the control-flow graph of a function body in this
// package, built on first use and memoized for the rest of the package's
// analysis, so the path-sensitive analyzers share one graph per function.
func (p *Pass) FuncCFG(body *ast.BlockStmt) *cfg.Graph {
	if p.cfgs == nil {
		p.cfgs = cfg.NewCache(p.TypesInfo)
	}
	return p.cfgs.Get(body)
}

// Reportf reports a formatted diagnostic at pos with no category.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Categorizef reports a formatted diagnostic at pos carrying a category, a
// short stable slug ("leak", "double-release", "aba", ...) printed beside
// the analyzer name so findings group within one analyzer.
func (p *Pass) Categorizef(category string, pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Category: category, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is a message associated with a source position.
type Diagnostic struct {
	Pos      token.Pos
	Category string // optional stable slug classifying the finding
	Message  string
}
