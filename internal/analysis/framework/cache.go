package framework

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// cacheSchema versions the on-disk entry format itself; bumping it orphans
// every existing entry (they are simply never looked up again).
const cacheSchema = "lfcheck-cache-v2" // v2: entries carry used-allow keys

// exportedFact is one fact a package's passes exported, recorded so a
// cache entry can replay it into the fact store on a warm run.
type exportedFact struct {
	objKey string
	fact   Fact
}

// cacheEntry is the JSON shape of one memoized package result.
type cacheEntry struct {
	// Diags are the package's reportable diagnostics, file paths
	// relative to the loader base so entries survive checkout moves.
	Diags []cachedDiag `json:"diags"`
	// Facts are the facts the package's passes exported, keyed by the
	// stable object key and the fact's Go type name.
	Facts []cachedFact `json:"facts,omitempty"`
	// Used are the allow directives that suppressed a diagnostic in this
	// package, so warm runs feed -debt -strict the same usage as cold ones.
	Used []cachedAllow `json:"used,omitempty"`
}

type cachedDiag struct {
	File     string `json:"file"`
	Offset   int    `json:"off"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Category string `json:"category,omitempty"`
	Message  string `json:"message"`
}

type cachedFact struct {
	Obj  string          `json:"obj"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

type cachedAllow struct {
	File  string `json:"file"`
	Line  int    `json:"line"`
	Check string `json:"check"`
}

// resultCache memoizes per-package analysis results under content hashes.
//
// The key of a package's entry covers everything that can change its
// result: the bytes of its own sources, the bytes of its whole in-module
// dependency closure (types and facts flow upward through imports), the
// analyzer suite (names and Versions), the package's role in the run
// (root or fact-only dependency — they run different analyzer subsets),
// the Go toolchain version (standard-library types), and the entry schema.
// Anything else — scheduling order, cache state, wall clock — does not
// participate, which is what makes warm output byte-identical to cold.
type resultCache struct {
	dir      string
	ld       *Loader
	base     string // absolute loader base, for relativizing positions
	suiteKey string // analyzer names+versions, part of every entry key
	registry map[string]reflect.Type

	mu     sync.Mutex        // guards hashes: packages are analyzed in parallel
	hashes map[string]string // contentHash memo, import path → hex
}

func newResultCache(dir string, ld *Loader, analyzers []*Analyzer) (*resultCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating cache dir: %w", err)
	}
	base := ld.Dir
	if base == "" {
		base, _ = os.Getwd()
	}
	base, _ = filepath.Abs(base)

	var suite []string
	registry := make(map[string]reflect.Type)
	for _, a := range analyzers {
		suite = append(suite, a.Name+"@"+a.Version)
		for _, f := range a.FactTypes {
			t := reflect.TypeOf(f)
			registry[t.String()] = t
		}
	}
	sort.Strings(suite)
	return &resultCache{
		dir:      dir,
		ld:       ld,
		base:     base,
		suiteKey: strings.Join(suite, ","),
		registry: registry,
		hashes:   make(map[string]string),
	}, nil
}

// contentHash hashes a package's sources and, recursively, its in-module
// dependency closure's. It is role- and suite-independent: one package has
// one content hash per source state.
func (c *resultCache) contentHash(path string) (string, error) {
	c.mu.Lock()
	sum, ok := c.hashes[path]
	c.mu.Unlock()
	if ok {
		return sum, nil
	}
	m := c.ld.meta[path]
	if m == nil {
		return "", fmt.Errorf("cache: no metadata for package %q", path)
	}
	h := sha256.New()
	fmt.Fprintf(h, "pkg %s\n", path)
	for _, file := range absFiles(m) {
		data, err := os.ReadFile(file)
		if err != nil {
			return "", fmt.Errorf("cache: hashing %s: %w", path, err)
		}
		fmt.Fprintf(h, "file %s %d\n", filepath.Base(file), len(data))
		h.Write(data)
	}
	for _, dep := range c.ld.moduleImports(m) {
		dh, err := c.contentHash(dep)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "dep %s %s\n", dep, dh)
	}
	sum = hex.EncodeToString(h.Sum(nil))
	c.mu.Lock()
	c.hashes[path] = sum
	c.mu.Unlock()
	return sum, nil
}

// entryPath computes the cache file for pkg in this run's configuration,
// or "" when the package cannot be hashed (it is then analyzed live).
func (c *resultCache) entryPath(pkg *Package) string {
	content, err := c.contentHash(pkg.PkgPath)
	if err != nil {
		return ""
	}
	role := "root"
	if pkg.DepOnly {
		role = "dep"
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n%s\n%s\n%s\n", cacheSchema, runtime.Version(), c.suiteKey, role, content)
	return filepath.Join(c.dir, hex.EncodeToString(h.Sum(nil))+".json")
}

// load restores pkg's memoized result, replaying its exported facts into
// facts, and reports whether an entry was found.
func (c *resultCache) load(pkg *Package, facts *FactStore) (*pkgResult, bool) {
	path := c.entryPath(pkg)
	if path == "" {
		return nil, false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var entry cacheEntry
	if err := json.Unmarshal(data, &entry); err != nil {
		return nil, false // corrupt entry: fall back to live analysis
	}
	res := &pkgResult{}
	for _, d := range entry.Diags {
		file := d.File
		if file != "" && !filepath.IsAbs(file) {
			file = filepath.Join(c.base, file)
		}
		res.diags = append(res.diags, RunDiagnostic{
			Position: token.Position{Filename: file, Offset: d.Offset, Line: d.Line, Column: d.Col},
			Message:  d.Message,
			Analyzer: d.Analyzer,
			Category: d.Category,
		})
	}
	for _, f := range entry.Facts {
		typ, ok := c.registry[f.Type]
		if !ok {
			continue // fact of an analyzer not in this run's suite
		}
		fact := reflect.New(typ.Elem()).Interface().(Fact)
		if err := json.Unmarshal(f.Data, fact); err != nil {
			return nil, false // corrupt fact: recompute the package
		}
		facts.install(f.Obj, fact)
		res.facts = append(res.facts, exportedFact{objKey: f.Obj, fact: fact})
	}
	for _, u := range entry.Used {
		file := u.File
		if file != "" && !filepath.IsAbs(file) {
			file = filepath.Join(c.base, file)
		}
		res.usedAllows = append(res.usedAllows, allowKey{file: file, line: u.Line, check: u.Check})
	}
	return res, true
}

// store memoizes one live result. Failures are silent: the cache is an
// accelerator, never a correctness dependency.
func (c *resultCache) store(pkg *Package, res *pkgResult) {
	path := c.entryPath(pkg)
	if path == "" {
		return
	}
	entry := cacheEntry{Diags: make([]cachedDiag, 0, len(res.diags))}
	for _, d := range res.diags {
		file := d.Position.Filename
		if rel, err := filepath.Rel(c.base, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		entry.Diags = append(entry.Diags, cachedDiag{
			File:     file,
			Offset:   d.Position.Offset,
			Line:     d.Position.Line,
			Col:      d.Position.Column,
			Analyzer: d.Analyzer,
			Category: d.Category,
			Message:  d.Message,
		})
	}
	for _, u := range res.usedAllows {
		file := u.file
		if rel, err := filepath.Rel(c.base, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		entry.Used = append(entry.Used, cachedAllow{File: file, Line: u.line, Check: u.check})
	}
	for _, f := range res.facts {
		data, err := json.Marshal(f.fact)
		if err != nil {
			return // unserializable fact: skip caching this package
		}
		entry.Facts = append(entry.Facts, cachedFact{
			Obj:  f.objKey,
			Type: reflect.TypeOf(f.fact).String(),
			Data: data,
		})
	}
	data, err := json.Marshal(entry)
	if err != nil {
		return
	}
	// Content-addressed entries make concurrent writers idempotent; the
	// rename keeps readers from seeing a torn entry.
	tmp, err := os.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	tmp.Close()
	os.Rename(tmp.Name(), path)
}
