package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

// Package is a loaded, type-checked package, mirroring packages.Package.
type Package struct {
	PkgPath   string
	Name      string
	Dir       string // the package's source directory, as reported by go list
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	// DepOnly marks a package loaded by LoadClosure only because a
	// requested package depends on it: it is analyzed for facts but its
	// diagnostics are not reported.
	DepOnly bool

	// Errors holds parse and type errors encountered in this package.
	// Dependencies must check cleanly; root packages tolerate errors so a
	// driver can report them all at once.
	Errors []error
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	Export     string // compiled export data, from go list -export
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *listError
}

type listError struct {
	Err string
}

// Loader loads packages by shelling out to `go list` for metadata,
// type-checking in-module packages from source and importing
// standard-library dependencies from compiled export data (so packages
// like net, whose source needs cgo or GOROOT vendoring, still resolve).
// A Loader caches checked packages, so loading several patterns or
// fixture packages that share dependencies pays each import cost once.
type Loader struct {
	// Dir is the working directory for `go list`; empty means the
	// process's current directory. Patterns like ./... are resolved
	// relative to it.
	Dir string

	fset     *token.FileSet
	meta     map[string]*listPkg
	pkgs     map[string]*types.Package
	roots    map[string]*Package
	checking map[string]bool
	gcImp    types.Importer // export-data importer for standard packages
}

// NewLoader returns a Loader rooted at dir.
func NewLoader(dir string) *Loader {
	return &Loader{
		Dir:      dir,
		fset:     token.NewFileSet(),
		meta:     make(map[string]*listPkg),
		pkgs:     make(map[string]*types.Package),
		roots:    make(map[string]*Package),
		checking: make(map[string]bool),
	}
}

// Fset returns the loader's file set, shared by all packages it loads.
func (ld *Loader) Fset() *token.FileSet { return ld.fset }

// Load resolves the given go-list patterns (e.g. "./...") and returns the
// matched packages, parsed and type-checked, in dependency order
// (dependencies before importers). Dependencies are type-checked too but
// not returned.
func (ld *Loader) Load(patterns ...string) ([]*Package, error) {
	return ld.load(patterns, false)
}

// LoadClosure is Load extended to the in-module dependency closure: every
// non-standard-library package the matched packages depend on is loaded
// too, fully checked with syntax, marked DepOnly, and placed before its
// importers. Interprocedural drivers use this order to compute function
// facts bottom-up.
func (ld *Loader) LoadClosure(patterns ...string) ([]*Package, error) {
	return ld.load(patterns, true)
}

func (ld *Loader) load(patterns []string, closure bool) ([]*Package, error) {
	if err := ld.list(patterns); err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, m := range ld.topoOrder(closure) {
		pkg, err := ld.checkRoot(m)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", m.ImportPath, err)
		}
		pkg.DepOnly = m.DepOnly
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// topoOrder returns the metadata of the packages to check, dependencies
// first. With closure set it includes every non-standard dependency of the
// roots; otherwise only the roots themselves, still in dependency order.
// Ties are broken by import path, so the order is deterministic.
func (ld *Loader) topoOrder(closure bool) []*listPkg {
	var roots []*listPkg
	for _, m := range ld.meta {
		if !m.DepOnly {
			roots = append(roots, m)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ImportPath < roots[j].ImportPath })

	var order []*listPkg
	seen := make(map[string]bool)
	var visit func(m *listPkg)
	visit = func(m *listPkg) {
		if seen[m.ImportPath] {
			return
		}
		seen[m.ImportPath] = true
		imports := append([]string(nil), m.Imports...)
		sort.Strings(imports)
		for _, imp := range imports {
			if d := ld.meta[imp]; d != nil && !d.Standard {
				visit(d)
			}
		}
		order = append(order, m)
	}
	for _, r := range roots {
		visit(r)
	}
	if closure {
		return order
	}
	var onlyRoots []*listPkg
	for _, m := range order {
		if !m.DepOnly {
			onlyRoots = append(onlyRoots, m)
		}
	}
	return onlyRoots
}

// LoadFiles parses and type-checks the given Go files as a single package
// (used by the analysistest harness for testdata fixtures, which `go list`
// deliberately ignores). Imports resolve through the loader as usual, and
// the checked package is registered under pkgPath, so a later LoadFiles
// fixture may import an earlier one by that path — which is how the facts
// tests build multi-package dependency graphs out of fixtures.
func (ld *Loader) LoadFiles(pkgPath string, filenames ...string) (*Package, error) {
	m := &listPkg{ImportPath: pkgPath, GoFiles: filenames}
	return ld.checkRoot(m)
}

// list runs `go list -e -json -deps -export` on the patterns and merges
// the result into ld.meta. The -export flag records the path of each
// dependency's compiled export data, which Import uses for standard
// packages in place of type-checking their source.
func (ld *Loader) list(patterns []string) error {
	args := append([]string{"list", "-e", "-json", "-deps", "-export"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = ld.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("go list: %v", err)
	}
	dec := json.NewDecoder(out)
	var decodeErr error
	for {
		var p listPkg
		if err := dec.Decode(&p); err != nil {
			if err != io.EOF {
				decodeErr = err
			}
			break
		}
		if old, ok := ld.meta[p.ImportPath]; ok {
			// A package listed once as a dependency and once as a root is
			// a root.
			old.DepOnly = old.DepOnly && p.DepOnly
			continue
		}
		pp := p
		ld.meta[p.ImportPath] = &pp
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	if decodeErr != nil {
		return fmt.Errorf("go list %v: decoding output: %v", patterns, decodeErr)
	}
	return nil
}

// Import implements types.Importer. Standard-library packages resolve
// from their compiled export data (their source may require cgo or
// GOROOT-internal vendoring, neither of which source checking handles);
// everything else is type-checked from source, recursively.
func (ld *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := ld.pkgs[path]; ok {
		return pkg, nil
	}
	m := ld.meta[path]
	if m == nil {
		// A fixture import outside any previously listed closure:
		// resolve it on demand.
		if err := ld.list([]string{path}); err != nil {
			return nil, err
		}
		if m = ld.meta[path]; m == nil {
			return nil, fmt.Errorf("package %q not found by go list", path)
		}
	}
	if m.Standard && m.Export != "" {
		pkg, err := ld.importExportData(path)
		if err != nil {
			return nil, fmt.Errorf("importing %s from export data: %v", path, err)
		}
		ld.pkgs[path] = pkg
		return pkg, nil
	}
	if ld.checking[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	ld.checking[path] = true
	defer delete(ld.checking, path)

	pkg, errs := ld.check(m, nil)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, errs[0])
	}
	ld.pkgs[path] = pkg
	return pkg, nil
}

// importExportData imports a package from compiled export data via the gc
// importer, looking the data file up in the go list metadata (listing on
// demand for paths first seen inside another package's export data). The
// importer instance is shared so packages referenced from several export
// files resolve to one *types.Package.
func (ld *Loader) importExportData(path string) (*types.Package, error) {
	if ld.gcImp == nil {
		lookup := func(p string) (io.ReadCloser, error) {
			m := ld.meta[p]
			if m == nil || m.Export == "" {
				if err := ld.list([]string{p}); err != nil {
					return nil, err
				}
				m = ld.meta[p]
			}
			if m == nil || m.Export == "" {
				return nil, fmt.Errorf("no export data for %q", p)
			}
			return os.Open(m.Export)
		}
		ld.gcImp = importer.ForCompiler(ld.fset, "gc", lookup)
	}
	return ld.gcImp.Import(path)
}

// checkRoot type-checks a root package, capturing syntax and type
// information for analysis. Parse and type errors are collected into the
// returned Package rather than failing the load. A cleanly checked package
// is cached both as a root (repeat loads return the same *Package) and as
// an importable dependency, so packages checked later in dependency order
// resolve their imports to this very instance.
func (ld *Loader) checkRoot(m *listPkg) (*Package, error) {
	if m.Error != nil {
		return nil, fmt.Errorf("%s", m.Error.Err)
	}
	if pkg, ok := ld.roots[m.ImportPath]; ok {
		return pkg, nil
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg := &Package{PkgPath: m.ImportPath, Dir: m.Dir, Fset: ld.fset, TypesInfo: info}
	tpkg, errs := ld.checkInto(m, info, &pkg.Syntax)
	pkg.Types = tpkg
	pkg.Errors = errs
	if tpkg != nil {
		pkg.Name = tpkg.Name()
	}
	if len(errs) == 0 && tpkg != nil && m.ImportPath != "" {
		ld.roots[m.ImportPath] = pkg
		if _, imported := ld.pkgs[m.ImportPath]; !imported {
			ld.pkgs[m.ImportPath] = tpkg
		}
	}
	return pkg, nil
}

// check type-checks a dependency (no syntax or info retained beyond what
// go/types needs internally).
func (ld *Loader) check(m *listPkg, info *types.Info) (*types.Package, []error) {
	return ld.checkInto(m, info, nil)
}

func (ld *Loader) checkInto(m *listPkg, info *types.Info, syntax *[]*ast.File) (*types.Package, []error) {
	var errs []error
	if m.Error != nil {
		errs = append(errs, fmt.Errorf("%s", m.Error.Err))
	}
	if len(m.CgoFiles) > 0 {
		return nil, []error{fmt.Errorf("package %s uses cgo, which the source loader does not support", m.ImportPath)}
	}
	var files []*ast.File
	for _, name := range m.GoFiles {
		if m.Dir != "" && !filepath.IsAbs(name) {
			name = filepath.Join(m.Dir, name)
		}
		f, err := parser.ParseFile(ld.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		files = append(files, f)
	}
	if syntax != nil {
		*syntax = files
	}
	conf := types.Config{
		Importer: ld,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			errs = append(errs, err)
		},
	}
	tpkg, _ := conf.Check(m.ImportPath, ld.fset, files, info)
	return tpkg, errs
}
