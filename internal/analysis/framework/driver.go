package framework

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"valois/internal/analysis/framework/cfg"
)

// RunDiagnostic is one analyzer finding, positioned and printable.
type RunDiagnostic struct {
	Position token.Position
	Message  string
	Analyzer string
	Category string
}

// String renders the diagnostic as "pos: message (analyzer/category)", or
// "(analyzer)" when it carries no category.
func (d RunDiagnostic) String() string {
	check := d.Analyzer
	if d.Category != "" {
		check += "/" + d.Category
	}
	return fmt.Sprintf("%s: %s (%s)", d.Position, d.Message, check)
}

// Run loads the patterns through ld and applies each analyzer to each
// matched package, returning the diagnostics sorted on every key (file,
// line, column, analyzer, category, message), so the output is
// byte-stable across runs. Load or type-check errors in the target
// packages are returned as an error: the analyzers' results would not be
// trustworthy on broken packages.
//
// Packages are analyzed one at a time in the loader's order, which puts
// every package after the in-module packages it imports. If any analyzer
// declares FactTypes, the in-module dependency closure of the patterns is
// loaded too, so cross-package function facts are exported before an
// importing package is checked; closure-only packages contribute facts but
// no diagnostics.
//
// Packages living under a testdata directory are skipped when they were
// matched by a wildcard ("...") pattern: analyzer fixtures are intentionally
// buggy and must not trip a whole-tree run. Naming a testdata package
// explicitly still analyzes it.
//
// Diagnostics may be suppressed by a directive comment
//
//	//lfcheck:allow <check> <reason>
//
// which silences diagnostics of analyzer <check> (or of every analyzer,
// for <check> = "all") on the directive's own line and the line below it.
// The reason is mandatory. A directive missing its check name or reason,
// and one that suppressed nothing in this run, is itself reported, as
// analyzer "lfcheck" category "directive": a stale suppression would
// otherwise silently excuse some future finding on its line.
func Run(ld *Loader, analyzers []*Analyzer, patterns []string) ([]RunDiagnostic, error) {
	load := ld.Load
	for _, a := range analyzers {
		if len(a.FactTypes) > 0 {
			load = ld.LoadClosure
		}
	}
	pkgs, err := load(patterns...)
	if err != nil {
		return nil, err
	}
	facts := NewFactStore()
	var diags []RunDiagnostic
	for _, pkg := range pkgs {
		if skipTestdata(ld, pkg, patterns) {
			continue
		}
		if len(pkg.Errors) > 0 {
			return nil, fmt.Errorf("package %s did not type-check: %v", pkg.PkgPath, pkg.Errors[0])
		}
		if err := analyzePackage(pkg, analyzers, facts, &diags); err != nil {
			return nil, err
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

// analyzePackage runs every applicable analyzer over one package,
// appending its reportable diagnostics to diags and its facts to facts.
func analyzePackage(pkg *Package, analyzers []*Analyzer, facts *FactStore, diags *[]RunDiagnostic) error {
	var allows map[allowKey]*allowDirective
	if !pkg.DepOnly {
		allows = collectAllows(pkg, diags)
	}
	// One CFG cache per package: every analyzer's pass shares the graphs.
	cfgs := cfg.NewCache(pkg.TypesInfo)
	for _, a := range analyzers {
		if pkg.DepOnly && len(a.FactTypes) == 0 {
			continue // dependency passes exist only to compute facts
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Facts:     facts,
			cfgs:      cfgs,
		}
		pass.Report = func(di Diagnostic) {
			if pkg.DepOnly {
				return
			}
			pos := pkg.Fset.Position(di.Pos)
			if allowed(allows, pos, a.Name) {
				return
			}
			*diags = append(*diags, RunDiagnostic{
				Position: pos,
				Message:  di.Message,
				Analyzer: a.Name,
				Category: di.Category,
			})
		}
		if _, err := a.Run(pass); err != nil {
			return fmt.Errorf("analyzer %s on %s: %v", a.Name, pkg.PkgPath, err)
		}
	}
	for _, d := range allows {
		if !d.used {
			*diags = append(*diags, RunDiagnostic{
				Position: d.pos,
				Message:  fmt.Sprintf("stale directive %q: it suppressed no finding", d.text),
				Analyzer: "lfcheck",
				Category: "directive",
			})
		}
	}
	return nil
}

// sortDiagnostics orders diags on every key so the driver's output is
// byte-stable: position first, then analyzer, category, and message.
func sortDiagnostics(diags []RunDiagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := diags[i].Position, diags[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		if diags[i].Category != diags[j].Category {
			return diags[i].Category < diags[j].Category
		}
		return diags[i].Message < diags[j].Message
	})
}

// allowKey identifies one suppression: this check is allowed on this line.
type allowKey struct {
	file  string
	line  int
	check string
}

// allowDirective is one well-formed //lfcheck:allow comment of a package,
// and whether it has suppressed a diagnostic in this run.
type allowDirective struct {
	pos  token.Position
	text string
	used bool
}

// allowed reports whether a diagnostic of the named analyzer at pos is
// covered by a directive on its own line or the line above, marking the
// directive that matched as used.
func allowed(allows map[allowKey]*allowDirective, pos token.Position, analyzer string) bool {
	for _, check := range [2]string{analyzer, "all"} {
		for _, line := range [2]int{pos.Line, pos.Line - 1} {
			if d := allows[allowKey{pos.Filename, line, check}]; d != nil {
				d.used = true
				return true
			}
		}
	}
	return false
}

const allowPrefix = "//lfcheck:allow"

// collectAllows gathers the //lfcheck:allow directives of one package,
// reporting malformed ones (missing check name or reason) into diags.
func collectAllows(pkg *Package, diags *[]RunDiagnostic) map[allowKey]*allowDirective {
	allows := make(map[allowKey]*allowDirective)
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					*diags = append(*diags, RunDiagnostic{
						Position: pos,
						Message:  fmt.Sprintf("malformed directive %q: want %s <check> <reason>", c.Text, allowPrefix),
						Analyzer: "lfcheck",
						Category: "directive",
					})
					continue
				}
				allows[allowKey{pos.Filename, pos.Line, fields[0]}] = &allowDirective{pos: pos, text: c.Text}
			}
		}
	}
	return allows
}

// skipTestdata reports whether pkg lives under a testdata directory and was
// matched only by a wildcard pattern.
func skipTestdata(ld *Loader, pkg *Package, patterns []string) bool {
	if !underTestdata(pkg.Dir) {
		return false
	}
	base := ld.Dir
	if base == "" {
		base, _ = os.Getwd()
	}
	for _, p := range patterns {
		if strings.Contains(p, "...") {
			continue
		}
		if p == pkg.PkgPath {
			return false
		}
		if abs, err := filepath.Abs(filepath.Join(base, p)); err == nil && abs == filepath.Clean(pkg.Dir) {
			return false
		}
	}
	return true
}

func underTestdata(dir string) bool {
	for _, part := range strings.Split(filepath.ToSlash(dir), "/") {
		if part == "testdata" {
			return true
		}
	}
	return false
}
