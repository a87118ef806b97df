package main_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// build compiles the lfcheck binary once into a temp dir and returns two
// runners: one executing it from the module root, one from an arbitrary
// directory (for planted temp modules).
func build(t *testing.T) (run func(args ...string) (string, string, int), runIn func(dir string, args ...string) (string, string, int)) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "lfcheck")
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lfcheck")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building lfcheck: %v\n%s", err, out)
	}
	runIn = func(dir string, args ...string) (stdout, stderr string, exit int) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		var out, errb strings.Builder
		cmd.Stdout = &out
		cmd.Stderr = &errb
		err := cmd.Run()
		exit = 0
		if ee, ok := err.(*exec.ExitError); ok {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("running lfcheck %v: %v", args, err)
		}
		return out.String(), errb.String(), exit
	}
	run = func(args ...string) (string, string, int) {
		t.Helper()
		return runIn(root, args...)
	}
	return run, runIn
}

func TestLfcheckCLI(t *testing.T) {
	run, runIn := build(t)

	t.Run("list", func(t *testing.T) {
		out, _, exit := run("-list")
		if exit != 0 {
			t.Fatalf("-list exit = %d, want 0", exit)
		}
		for _, name := range []string{
			"mixedatomic", "refbalance", "abaguard", "casloop", "atomiccopy",
			"goroleak", "conndeadline", "boundedretry", "hbpublish", "releasepath",
		} {
			if !strings.Contains(out, name) {
				t.Errorf("-list output missing analyzer %q:\n%s", name, out)
			}
		}
	})

	t.Run("clean package exits zero", func(t *testing.T) {
		out, stderr, exit := run("./internal/primitive")
		if exit != 0 {
			t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", exit, out, stderr)
		}
		if strings.TrimSpace(out) != "" {
			t.Fatalf("clean run produced output:\n%s", out)
		}
	})

	t.Run("findings exit one", func(t *testing.T) {
		// Naming the testdata fixture explicitly bypasses the wildcard
		// testdata skip; the releasepath fixture is deliberately buggy.
		out, _, exit := run("./internal/analysis/releasepath/testdata/src/a")
		if exit != 1 {
			t.Fatalf("exit = %d, want 1\n%s", exit, out)
		}
		if !strings.Contains(out, "(releasepath)") {
			t.Fatalf("expected releasepath findings, got:\n%s", out)
		}
	})

	t.Run("checks filter", func(t *testing.T) {
		// Restricted to casloop, the releasepath fixture's leaks are invisible.
		out, _, exit := run("-checks", "casloop", "./internal/analysis/releasepath/testdata/src/a")
		if exit != 0 {
			t.Fatalf("exit = %d, want 0\n%s", exit, out)
		}
	})

	t.Run("unknown check exits two", func(t *testing.T) {
		_, stderr, exit := run("-checks", "nosuch", "./...")
		if exit != 2 {
			t.Fatalf("exit = %d, want 2", exit)
		}
		if !strings.Contains(stderr, "unknown analyzer") {
			t.Fatalf("stderr = %q, want unknown analyzer error", stderr)
		}
	})

	t.Run("json and sarif are exclusive", func(t *testing.T) {
		_, _, exit := run("-json", "-sarif", "./internal/primitive")
		if exit != 2 {
			t.Fatalf("exit = %d, want 2", exit)
		}
	})

	t.Run("json output shape", func(t *testing.T) {
		out, _, exit := run("-json", "./internal/analysis/releasepath/testdata/src/a")
		if exit != 1 {
			t.Fatalf("exit = %d, want 1\n%s", exit, out)
		}
		var diags []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Category string `json:"category"`
			Message  string `json:"message"`
		}
		if err := json.Unmarshal([]byte(out), &diags); err != nil {
			t.Fatalf("output is not a JSON diagnostics array: %v\n%s", err, out)
		}
		if len(diags) == 0 {
			t.Fatal("JSON output is empty")
		}
		for _, d := range diags {
			if d.File == "" || d.Line == 0 || d.Analyzer == "" || d.Message == "" {
				t.Fatalf("diagnostic missing fields: %+v", d)
			}
		}
		// The fixture's leaks are visible to both the exit-path and the
		// interprocedural checker, each under its own category.
		found := make(map[string]bool)
		for _, d := range diags {
			found[d.Analyzer+"/"+d.Category] = true
		}
		if !found["releasepath/exit-leak"] || !found["refbalance/leak"] {
			t.Fatalf("want releasepath/exit-leak and refbalance/leak diagnostics in %+v", diags)
		}
	})

	t.Run("sarif output shape", func(t *testing.T) {
		out, _, exit := run("-sarif", "./internal/analysis/releasepath/testdata/src/a")
		if exit != 1 {
			t.Fatalf("exit = %d, want 1\n%s", exit, out)
		}
		var log struct {
			Version string `json:"version"`
			Runs    []struct {
				Tool struct {
					Driver struct {
						Name  string `json:"name"`
						Rules []struct {
							ID string `json:"id"`
						} `json:"rules"`
					} `json:"driver"`
				} `json:"tool"`
				Results []struct {
					RuleID  string `json:"ruleId"`
					Message struct {
						Text string `json:"text"`
					} `json:"message"`
				} `json:"results"`
			} `json:"runs"`
		}
		if err := json.Unmarshal([]byte(out), &log); err != nil {
			t.Fatalf("output is not SARIF: %v\n%s", err, out)
		}
		if log.Version != "2.1.0" || len(log.Runs) != 1 {
			t.Fatalf("unexpected SARIF envelope: version %q, %d runs", log.Version, len(log.Runs))
		}
		r := log.Runs[0]
		if r.Tool.Driver.Name != "lfcheck" || len(r.Tool.Driver.Rules) != 10 {
			t.Fatalf("driver = %q with %d rules, want lfcheck with 10", r.Tool.Driver.Name, len(r.Tool.Driver.Rules))
		}
		if len(r.Results) == 0 {
			t.Fatal("SARIF results are empty")
		}
	})

	t.Run("allow directives", func(t *testing.T) {
		// The fixture suppresses its one deliberate leak with a wildcard
		// directive and plants one malformed directive; the only finding
		// must be the driver's complaint about the latter.
		out, _, exit := run("./cmd/lfcheck/testdata/allowfix")
		if exit != 1 {
			t.Fatalf("exit = %d, want 1\n%s", exit, out)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) != 1 {
			t.Fatalf("want exactly the malformed-directive finding, got:\n%s", out)
		}
		if !strings.Contains(lines[0], "malformed directive") || !strings.Contains(lines[0], "(lfcheck)") {
			t.Fatalf("unexpected finding: %s", lines[0])
		}
	})

	t.Run("whole tree is clean", func(t *testing.T) {
		// The suite's acceptance bar: all ten analyzers at zero findings
		// tree-wide. This is also the regression net for the backoff and
		// deadline fixes — removing one re-flags its loop here.
		out, stderr, exit := run("./...")
		if exit != 0 {
			t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", exit, out, stderr)
		}
		if strings.TrimSpace(out) != "" {
			t.Fatalf("tree-wide run produced findings:\n%s", out)
		}
	})

	t.Run("debt text output", func(t *testing.T) {
		// faultnet carries the tree's two reasoned conndeadline
		// suppressions (the proxy pumps must tolerate injected stalls).
		out, _, exit := run("-debt", "./internal/faultnet")
		if exit != 0 {
			t.Fatalf("-debt exit = %d, want 0\n%s", exit, out)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if lines[0] != "lfcheck debt: 2 directive(s) (conndeadline=2)" {
			t.Fatalf("unexpected debt summary: %q", lines[0])
		}
		if len(lines) != 3 {
			t.Fatalf("want summary + 2 directive lines, got:\n%s", out)
		}
		for _, l := range lines[1:] {
			if !strings.Contains(l, "faultnet.go:") || !strings.Contains(l, "conndeadline [") || !strings.Contains(l, "d]: ") {
				t.Fatalf("directive line missing position, check, or age: %q", l)
			}
		}
	})

	t.Run("debt json output", func(t *testing.T) {
		out, _, exit := run("-debt", "-json", "./internal/faultnet")
		if exit != 0 {
			t.Fatalf("-debt -json exit = %d, want 0\n%s", exit, out)
		}
		var dirs []struct {
			File      string `json:"file"`
			Line      int    `json:"line"`
			Check     string `json:"check"`
			Reason    string `json:"reason"`
			AgeDays   int    `json:"age_days"`
			Malformed bool   `json:"malformed"`
		}
		if err := json.Unmarshal([]byte(out), &dirs); err != nil {
			t.Fatalf("output is not a JSON directive array: %v\n%s", err, out)
		}
		if len(dirs) != 2 {
			t.Fatalf("want 2 directives, got %d: %+v", len(dirs), dirs)
		}
		for _, d := range dirs {
			if !strings.Contains(d.File, "faultnet.go") || d.Line == 0 || d.Check != "conndeadline" || d.Reason == "" || d.Malformed {
				t.Fatalf("unexpected directive: %+v", d)
			}
		}
	})

	t.Run("debt strict keeps used directives", func(t *testing.T) {
		// Both faultnet suppressions still shield live conndeadline
		// findings, so the strict inventory passes and marks nothing.
		out, stderr, exit := run("-debt", "-strict", "./internal/faultnet")
		if exit != 0 {
			t.Fatalf("-debt -strict exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", exit, out, stderr)
		}
		if strings.Contains(out, "STALE") {
			t.Fatalf("used directives marked stale:\n%s", out)
		}
	})

	t.Run("debt and sarif are exclusive", func(t *testing.T) {
		if _, _, exit := run("-debt", "-sarif", "./internal/faultnet"); exit != 2 {
			t.Fatalf("exit = %d, want 2", exit)
		}
	})

	t.Run("debt strict flags stale directives", func(t *testing.T) {
		// A directive whose finding has since been fixed suppresses
		// nothing; strict mode must fail so it gets cleaned up before it
		// silently excuses some future finding on its line.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module stale\n\ngo 1.22\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		src := `package stale

//lfcheck:allow casloop the retry loop here was rewritten long ago
func fine() int { return 1 }
`
		if err := os.WriteFile(filepath.Join(dir, "stale.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		out, stderr, exit := runIn(dir, "-debt", "-strict", "./...")
		if exit != 1 {
			t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", exit, out, stderr)
		}
		if !strings.Contains(out, "STALE") {
			t.Fatalf("stale directive not marked:\n%s", out)
		}
		if !strings.Contains(stderr, "1 stale") {
			t.Fatalf("stderr = %q, want stale count", stderr)
		}
	})

	t.Run("cache warm run skips packages", func(t *testing.T) {
		cacheDir := filepath.Join(t.TempDir(), "cache")
		_, stderr, exit := run("-cache", cacheDir, "./internal/primitive")
		if exit != 0 {
			t.Fatalf("cold cached run exit = %d, want 0\n%s", exit, stderr)
		}
		if !strings.Contains(stderr, "0 cached, 1 analyzed") {
			t.Fatalf("cold run summary = %q, want 0 cached, 1 analyzed", stderr)
		}
		_, stderr, exit = run("-cache", cacheDir, "./internal/primitive")
		if exit != 0 {
			t.Fatalf("warm cached run exit = %d, want 0\n%s", exit, stderr)
		}
		if !strings.Contains(stderr, "1 cached, 0 analyzed") {
			t.Fatalf("warm run summary = %q, want 1 cached, 0 analyzed", stderr)
		}
	})
}

// TestPlantAndDetect proves the v3 lifecycle analyzers stay live against
// the code shapes they exist for: the serving tree is clean, so this test
// plants one violation per analyzer — a leaked handler goroutine, a
// deadline-less connection read, an unpaced CAS retry, a post-publication
// field write, a reference abandoned on a panic exit, an epoch guard
// that escapes Unpin on an early return, and one discarded outright (a
// bare Pin() statement, which no exit path can ever balance) — in a temp
// module and requires each to be detected through the real binary.
func TestPlantAndDetect(t *testing.T) {
	_, runIn := build(t)
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module planted\n\ngo 1.22\n")
	write("planted.go", `package planted

import (
	"net"
	"sync/atomic"
)

type session struct {
	n    int
	next atomic.Pointer[session]
}

var head atomic.Pointer[session]

// serve leaks its metrics goroutine: no termination path.
func serve() {
	go func() {
		for {
		}
	}()
}

// handle reads from the connection with no deadline armed.
func handle(c net.Conn, buf []byte) (int, error) {
	return c.Read(buf)
}

// register retries the head swing at full speed.
func register(s *session) {
	for {
		old := head.Load()
		s.next.Store(old)
		if head.CompareAndSwap(old, s) {
			return
		}
	}
}

// expose mutates the session after it is globally visible.
func expose(n int) {
	s := &session{}
	head.Store(s)
	s.n = n
}

type counted struct {
	n   int
	ref atomic.Int64
}

var cur atomic.Pointer[counted]

// SafeRead acquires a counted reference to the current cell.
func SafeRead(p *atomic.Pointer[counted]) *counted {
	for {
		q := p.Load()
		if q == nil {
			return nil
		}
		q.ref.Add(1)
		if q == p.Load() {
			return q
		}
		Release(q)
	}
}

// Release drops a counted reference.
func Release(q *counted) {
	if q != nil {
		q.ref.Add(-1)
	}
}

// snapshot abandons its reference on the panic exit: unwinding runs no
// release, so the cell can never be reclaimed.
func snapshot() int {
	q := SafeRead(&cur)
	if q == nil {
		return 0
	}
	if q.n < 0 {
		panic("corrupt session")
	}
	v := q.n
	Release(q)
	return v
}

type guard struct{ slot *int }

var pins atomic.Int64

// Pin opens an epoch-protected region.
func Pin() guard {
	pins.Add(1)
	return guard{}
}

// Unpin closes it.
func Unpin(g guard) {
	pins.Add(-1)
}

// observe leaves the epoch pinned on the early return: reclamation
// wedges for every structure sharing the epoch.
func observe() int {
	g := Pin()
	q := SafeRead(&cur)
	if q == nil {
		return 0
	}
	v := q.n
	Release(q)
	Unpin(g)
	return v
}

// glance discards the guard outright: it can never be unpinned.
func glance() {
	Pin()
}
`)

	out, stderr, exit := runIn(dir, "-json", "./...")
	if exit != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", exit, out, stderr)
	}
	var diags []struct {
		Analyzer string `json:"analyzer"`
		Category string `json:"category"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("output is not a JSON diagnostics array: %v\n%s", err, out)
	}
	found := make(map[string]bool)
	for _, d := range diags {
		found[d.Analyzer+"/"+d.Category] = true
		if strings.Contains(d.Message, "is discarded") {
			found[d.Analyzer+"/"+d.Category+" (discarded)"] = true
		}
	}
	for _, want := range []string{
		"goroleak/goroutine-leak",
		"conndeadline/no-deadline",
		"boundedretry/unbounded",
		"hbpublish/unsafe-publish",
		"releasepath/exit-leak",
		"releasepath/missing-unpin",
		"releasepath/missing-unpin (discarded)",
	} {
		if !found[want] {
			t.Errorf("planted violation for %s not detected; diagnostics: %+v", want, diags)
		}
	}
}
