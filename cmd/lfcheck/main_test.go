package main_test

import (
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
		// lfcheck has no flags; -h prints the usage, which lists every
		// analyzer it runs.
		_, stderr, exit := run("-h")
		if exit != 0 {
			t.Fatalf("-h exit = %d, want 0", exit)
		}
		for _, name := range []string{
			"mixedatomic", "refbalance", "abaguard", "casloop", "goroleak",
			"conndeadline", "boundedretry", "hbpublish", "releasepath",
		} {
			if !strings.Contains(stderr, name) {
				t.Errorf("usage missing analyzer %q:\n%s", name, stderr)
			}
		}
	})

	t.Run("any flag exits two", func(t *testing.T) {
		for _, flag := range []string{"-json", "-sarif", "-list", "-strict", "-debt"} {
			if _, _, exit := run(flag, "./internal/primitive"); exit != 2 {
				t.Errorf("lfcheck %s exit = %d, want 2", flag, exit)
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
		// Its leaks are visible to both the exit-path and the
		// interprocedural checker, each under its own category.
		out, _, exit := run("./internal/analysis/releasepath/testdata/src/a")
		if exit != 1 {
			t.Fatalf("exit = %d, want 1\n%s", exit, out)
		}
		for _, want := range []string{"(releasepath/exit-leak)", "(refbalance/leak)"} {
			if !strings.Contains(out, want) {
				t.Errorf("expected %s findings, got:\n%s", want, out)
			}
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
		if !strings.Contains(lines[0], "malformed directive") || !strings.HasSuffix(lines[0], "(lfcheck/directive)") {
			t.Fatalf("unexpected finding: %s", lines[0])
		}
	})

	t.Run("whole tree is clean", func(t *testing.T) {
		// The suite's acceptance bar: all nine analyzers at zero findings
		// tree-wide, and every allow directive still suppressing one.
		// This is also the regression net for the backoff and deadline
		// fixes — removing one re-flags its loop here.
		out, stderr, exit := run("./...")
		if exit != 0 {
			t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", exit, out, stderr)
		}
		if strings.TrimSpace(out) != "" {
			t.Fatalf("tree-wide run produced findings:\n%s", out)
		}
	})

	t.Run("a used directive is not reported", func(t *testing.T) {
		// faultnet carries the tree's two reasoned conndeadline
		// suppressions (the proxy pumps must tolerate injected stalls);
		// both still shield live findings.
		out, stderr, exit := run("./internal/faultnet")
		if exit != 0 {
			t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", exit, out, stderr)
		}
		if strings.TrimSpace(out) != "" {
			t.Fatalf("used directives reported:\n%s", out)
		}
	})

	// plant writes a one-file module into a temp dir and runs a plain
	// lfcheck ./... over it.
	plant := func(t *testing.T, src string) (string, int) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module planted\n\ngo 1.22\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "planted.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		out, _, exit := runIn(dir, "./...")
		return out, exit
	}

	t.Run("a stale directive exits 1 in a plain run", func(t *testing.T) {
		// A directive whose finding has since been fixed suppresses
		// nothing; every run fails until it is removed, before it silently
		// excuses some future finding on its line.
		out, exit := plant(t, `package planted

//lfcheck:allow casloop the retry loop here was rewritten long ago
func fine() int { return 1 }
`)
		if exit != 1 {
			t.Fatalf("exit = %d, want 1\n%s", exit, out)
		}
		if !strings.Contains(out, "planted.go:3:1: stale directive") || !strings.HasSuffix(strings.TrimSpace(out), "(lfcheck/directive)") {
			t.Fatalf("stale directive not reported:\n%s", out)
		}
	})

	t.Run("a malformed directive exits 1 in a plain run", func(t *testing.T) {
		out, exit := plant(t, `package planted

//lfcheck:allow casloop
func fine() int { return 1 }
`)
		if exit != 1 {
			t.Fatalf("exit = %d, want 1\n%s", exit, out)
		}
		if !strings.Contains(out, "planted.go:3:1: malformed directive") || !strings.HasSuffix(strings.TrimSpace(out), "(lfcheck/directive)") {
			t.Fatalf("malformed directive not reported:\n%s", out)
		}
	})
}

// TestPlantAndDetect proves every analyzer stays live against the code
// shapes it exists for: the tree is clean, so this test plants one
// violation per analyzer — a plainly read atomic counter, a leaked
// reference, an ABA-prone pop, a stale CAS expected value, a leaked
// handler goroutine, a deadline-less connection read, an unpaced CAS
// retry, a post-publication field write, a reference abandoned on a panic
// exit, an epoch guard that escapes Unpin on an early return,
// and one discarded outright (a bare Pin() statement, which no exit path
// can ever balance) — in a temp module and requires each to be detected
// through the real binary. The leaked reference sits in a second package
// and is acquired through a helper of the first, so refbalance finds it
// only if the helper's summary fact was exported before the importer was
// analyzed.
func TestPlantAndDetect(t *testing.T) {
	_, runIn := build(t)
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
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

type stats struct{ hits int64 }

var st stats

// hit bumps the counter atomically.
func hit() { atomic.AddInt64(&st.hits, 1) }

// hits reads the same counter plainly.
func hits() int64 { return st.hits }

var gen atomic.Int64

// bump never re-loads its expected value: after one failure the CAS
// cannot succeed.
func bump() {
	old := gen.Load()
	for !gen.CompareAndSwap(old, old+1) {
	}
}

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
	N    int
	ref  atomic.Int64
	next atomic.Pointer[counted]
}

var cur, top atomic.Pointer[counted]

// pop dereferences the counted cell it loaded plainly before its CAS: the
// cell may be recycled in between.
func pop() *counted {
	for {
		old := top.Load()
		if old == nil {
			return nil
		}
		if top.CompareAndSwap(old, old.next.Load()) {
			return old
		}
	}
}

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

// Acquire hands its caller the counted reference SafeRead took.
func Acquire() *counted { return SafeRead(&cur) }

// snapshot abandons its reference on the panic exit: unwinding runs no
// release, so the cell can never be reclaimed.
func snapshot() int {
	q := SafeRead(&cur)
	if q == nil {
		return 0
	}
	if q.N < 0 {
		panic("corrupt session")
	}
	v := q.N
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
	v := q.N
	Release(q)
	Unpin(g)
	return v
}

// glance discards the guard outright: it can never be unpinned.
func glance() {
	Pin()
}
`)
	write("use/use.go", `package use

import "planted"

// Peek reads through a reference it never releases.
func Peek() int {
	if q := planted.Acquire(); q != nil {
		return q.N
	}
	return 0
}
`)

	out, stderr, exit := runIn(dir, "./...")
	if exit != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", exit, out, stderr)
	}
	found := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		open := strings.LastIndex(line, " (")
		if open < 0 || !strings.HasSuffix(line, ")") {
			t.Fatalf("finding not of the form pos: message (analyzer/category): %q", line)
		}
		check := line[open+2 : len(line)-1]
		found[check] = true
		if strings.Contains(line, "is discarded") {
			found[check+" (discarded)"] = true
		}
		if strings.Contains(line, filepath.Join("use", "use.go")+":") {
			found[check+" (use.go)"] = true
		}
	}
	for _, want := range []string{
		"mixedatomic/plain-access",
		"refbalance/leak (use.go)",
		"abaguard/aba",
		"casloop/stale-expected",
		"goroleak/goroutine-leak",
		"conndeadline/no-deadline",
		"boundedretry/unbounded",
		"hbpublish/unsafe-publish",
		"releasepath/exit-leak",
		"releasepath/missing-unpin",
		"releasepath/missing-unpin (discarded)",
	} {
		if !found[want] {
			t.Errorf("planted violation for %s not detected; findings:\n%s", want, out)
		}
	}
}
