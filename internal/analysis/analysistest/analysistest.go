// Package analysistest runs an analyzer over a fixture package and checks
// its diagnostics against "// want" comment expectations, in the style of
// golang.org/x/tools/go/analysis/analysistest.
//
// A fixture lives in testdata/src/<pkg>/ beside the analyzer's test (the
// testdata directory keeps it out of the regular build). Lines expected to
// be flagged carry a trailing comment of the form
//
//	x = 1 // want `plain write to field`
//	y = 2 // want "first" "second"
//
// where each Go string literal is a regular expression that must match one
// diagnostic reported on that line. Diagnostics without a matching
// expectation, and expectations without a matching diagnostic, fail the
// test. A fixture that several analyzers run over names the analyzer a
// literal is for, and the others skip it:
//
//	m.Pin() // want releasepath:`guard returned by Pin is discarded`
package analysistest

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"valois/internal/analysis/framework"
)

// expectation is one want-regexp at a file line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

// Run loads the fixture package testdata/src/<pkg>, applies the analyzer,
// and reports mismatches between its diagnostics and the fixture's want
// comments as test errors.
func Run(t *testing.T, testdata string, a *framework.Analyzer, pkg string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", pkg)
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture files in %s (%v)", dir, err)
	}
	sort.Strings(files)

	ld := framework.NewLoader(dir)
	loaded, err := ld.LoadFiles(pkg, files...)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	for _, e := range loaded.Errors {
		t.Errorf("fixture %s: %v", dir, e)
	}
	if t.Failed() {
		t.FailNow()
	}

	var wants []*expectation
	for _, f := range loaded.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := ld.Fset().Position(c.Pos())
				for _, w := range parseWants(t, a.Name, pos, c.Text) {
					wants = append(wants, w)
				}
			}
		}
	}

	pass := &framework.Pass{
		Analyzer:  a,
		Fset:      ld.Fset(),
		Files:     loaded.Syntax,
		Pkg:       loaded.Types,
		TypesInfo: loaded.TypesInfo,
		Facts:     framework.NewFactStore(),
	}
	var diags []framework.Diagnostic
	pass.Report = func(d framework.Diagnostic) { diags = append(diags, d) }
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}

	for _, d := range diags {
		pos := ld.Fset().Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.met && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// parseWants extracts the expectations from one comment's text, skipping
// literals prefixed with another analyzer's name.
func parseWants(t *testing.T, analyzer string, pos token.Position, text string) []*expectation {
	t.Helper()
	rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(text, "//")), "want ")
	if !ok {
		return nil
	}
	position := pos.String()
	file, line := pos.Filename, pos.Line
	var wants []*expectation
	rest = strings.TrimSpace(rest)
	for rest != "" {
		// An analyzer name before the literal: `name:"re"`.
		name, after, found := strings.Cut(rest, ":")
		if found && !strings.ContainsAny(name, "`\"") {
			rest = after
		} else {
			name = ""
		}
		lit, remainder, err := cutStringLiteral(rest)
		if err != nil {
			t.Fatalf("%s: malformed want comment %q: %v", position, text, err)
		}
		pattern, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: malformed want literal %s: %v", position, lit, err)
		}
		re, err := regexp.Compile(pattern)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", position, pattern, err)
		}
		if name == "" || name == analyzer {
			wants = append(wants, &expectation{file: file, line: line, re: re})
		}
		rest = strings.TrimSpace(remainder)
	}
	return wants
}

// cutStringLiteral splits a leading Go string literal (quoted or
// backquoted) off s.
func cutStringLiteral(s string) (lit, rest string, err error) {
	if s == "" {
		return "", "", fmt.Errorf("empty literal")
	}
	switch s[0] {
	case '`':
		if i := strings.IndexByte(s[1:], '`'); i >= 0 {
			return s[:i+2], s[i+2:], nil
		}
		return "", "", fmt.Errorf("unterminated raw string")
	case '"':
		for i := 1; i < len(s); i++ {
			switch s[i] {
			case '\\':
				i++
			case '"':
				return s[:i+1], s[i+1:], nil
			}
		}
		return "", "", fmt.Errorf("unterminated string")
	default:
		return "", "", fmt.Errorf("expected a string literal, found %q", s)
	}
}
