package server_test

// Crash-restart chaos: a real valoisd process with -aof -fsync always is
// SIGKILLed mid-traffic, restarted from its data directory, and driven
// again — and the MERGED history of both lives must be linearizable
// under the KV spec. Mutations whose reply never arrived (cut by the
// kill) are recorded Lost, the ambiguous case CheckKV absorbs: they may
// have reached the log before the kill or not. Acknowledged mutations
// are unambiguous — fsync=always means the record was flushed and
// fsynced before STORED/DELETED was sent, so the restarted process must
// observe them; the sentinel assertion pins exactly that.
//
// The kill is a process kill, not a machine crash: bytes that reached
// write(2) survive in the page cache, so the loss window for an applied
// mutation is only the user-space buffer between apply and flush. See
// DESIGN.md §10 for the one anomaly that window admits.
//
// The matrix mirrors the chaos suite: the served backends × the seed
// replay matrix, rotating over the served memory modes (matrixMode), with
// background snapshot compaction enabled on every other seed so recovery
// exercises both the pure-AOF and the snapshot+tail paths.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"valois/internal/client"
	"valois/internal/server"
	"valois/internal/testenv"
)

var (
	valoisdOnce sync.Once
	valoisdBin  string
	valoisdErr  error
)

// buildValoisd compiles cmd/valoisd once per test binary, the same
// build-and-drive idiom cmd/lfcheck's tests use.
func buildValoisd(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	valoisdOnce.Do(func() {
		dir, err := os.MkdirTemp("", "valoisd-crash")
		if err != nil {
			valoisdErr = err
			return
		}
		valoisdBin = filepath.Join(dir, "valoisd")
		root, err := filepath.Abs("../..")
		if err != nil {
			valoisdErr = err
			return
		}
		cmd := exec.Command("go", "build", "-o", valoisdBin, "./cmd/valoisd")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			valoisdErr = fmt.Errorf("go build ./cmd/valoisd: %v\n%s", err, out)
		}
	})
	if valoisdErr != nil {
		t.Fatal(valoisdErr)
	}
	return valoisdBin
}

// logWatcher captures a valoisd process's stderr and extracts the bound
// address from its "serving on <addr>" line.
type logWatcher struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addrC chan string
	sent  bool
}

func (w *logWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		s := w.buf.String()
		if i := strings.Index(s, "serving on "); i >= 0 {
			rest := s[i+len("serving on "):]
			if j := strings.IndexAny(rest, " \n"); j > 0 {
				w.addrC <- rest[:j]
				w.sent = true
			}
		}
	}
	return len(p), nil
}

func (w *logWatcher) log() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

type valoisdProc struct {
	cmd  *exec.Cmd
	addr string
	wat  *logWatcher
	done chan error
}

// startValoisd launches the daemon and waits until it is accepting. The
// returned proc is registered for cleanup kill, so a failing test never
// strands a child process.
func startValoisd(t *testing.T, bin string, args ...string) *valoisdProc {
	t.Helper()
	wat := &logWatcher{addrC: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = wat
	if err := cmd.Start(); err != nil {
		t.Fatalf("start valoisd: %v", err)
	}
	p := &valoisdProc{cmd: cmd, wat: wat, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-p.done
	})
	select {
	case p.addr = <-wat.addrC:
	case err := <-p.done:
		p.done <- err
		t.Fatalf("valoisd exited before serving: %v\n%s", err, wat.log())
	case <-time.After(10 * time.Second):
		t.Fatalf("valoisd never reported its address\n%s", wat.log())
	}
	return p
}

// kill SIGKILLs the process and reaps it — the crash.
func (p *valoisdProc) kill() {
	p.cmd.Process.Kill()
	err := <-p.done
	p.done <- err
}

// term asks for a graceful shutdown and reports the exit error (nil
// means exit 0: listener closed, connections drained, log fsynced).
func (p *valoisdProc) term(t *testing.T) error {
	t.Helper()
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		p.done <- err
		return err
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		err := <-p.done
		p.done <- err
		return fmt.Errorf("SIGTERM drain timed out; killed\n%s", p.wat.log())
	}
}

func dialDirect(addr, protocol string) (*client.Client, error) {
	return client.Dial(addr, client.Options{
		ConnectTimeout: 2 * time.Second,
		OpTimeout:      5 * time.Second,
		Retries:        -1, // one logical op = one wire attempt (see chaos_test.go)
		Protocol:       protocol,
	})
}

func TestCrashRestartLinearizable(t *testing.T) {
	bin := buildValoisd(t)
	for bi, backend := range server.Backends() {
		for si, seed := range chaosSeeds {
			mode := matrixMode(bi+si, si)
			snapshots := si%2 == 1
			t.Run(fmt.Sprintf("%s-%s-seed%d", backend, mode, seed), func(t *testing.T) {
				runCrashRestart(t, bin, backend, mode, seed, snapshots)
			})
		}
	}
}

func runCrashRestart(t *testing.T, bin, backend, mode string, seed int64, snapshots bool) {
	replay := fmt.Sprintf("backend=%s mode=%s seed=%d snapshots=%v", backend, mode, seed, snapshots)
	base := goroutineBaseline()
	dir := t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0", "-backend", backend, "-mode", mode,
		"-aof", "-data-dir", dir, "-fsync", "always",
	}
	if snapshots {
		// Fast enough that several compactions land inside the run, so
		// recovery goes through snapshot + tail, not just the AOF.
		args = append(args, "-snapshot-interval", "50ms")
	}

	// Phase 1: traffic into the first life until enough mutations have
	// been acknowledged, then SIGKILL at a seed-jittered moment.
	p1 := startValoisd(t, bin, args...)
	h := newWireHist(chaosKeys)
	var completed atomic.Int64
	target := int64(testenv.Iters(30))
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	worker := func(w, ops int, addr string, stop <-chan struct{}) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed<<8 + int64(w)))
		var c *client.Client
		defer func() {
			if c != nil {
				c.Close()
			}
		}()
		for i := 0; ops < 0 || i < ops; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if c == nil {
				var err error
				// Workers alternate wire protocols, so recovery is
				// exercised under mixed text/RESP traffic.
				if c, err = dialDirect(addr, protoFor(w)); err != nil {
					// The kill landed (or is about to); wait for the stop
					// signal rather than spinning on a dead address.
					select {
					case <-stop:
						return
					case <-time.After(10 * time.Millisecond):
					}
					continue
				}
			}
			k, ok := h.pickKey(rng.Intn)
			if !ok {
				return
			}
			var err error
			switch rng.Intn(10) {
			case 0, 1, 2:
				var bad bool
				if err, bad = h.doWireGet(c, k); bad {
					t.Errorf("%s: worker %d: %v", replay, w, err)
					return
				}
			case 3, 4, 5, 6:
				if err = h.doWireSet(c, k); err == nil {
					completed.Add(1)
				}
			default:
				if err = h.doWireDelete(c, k); err == nil {
					completed.Add(1)
				}
			}
			if err != nil {
				// Transport cut — mutations were recorded Lost. Drop the
				// connection; the loop redials (or exits on stop).
				c.Close()
				c = nil
			}
		}
	}
	for w := 0; w < chaosWorkers; w++ {
		wg.Add(1)
		go worker(w, -1, p1.addr, stopCh)
	}
	deadline := time.Now().Add(20 * time.Second)
	for completed.Load() < target {
		if time.Now().After(deadline) {
			close(stopCh)
			wg.Wait()
			t.Fatalf("%s: only %d/%d mutations acknowledged before deadline\n%s",
				replay, completed.Load(), target, p1.wat.log())
		}
		time.Sleep(time.Millisecond)
	}
	// The sentinel: acknowledged under fsync=always, so its record was
	// flushed and fsynced before the reply — the restarted process MUST
	// have it, which turns "recovery happened" into a deterministic
	// assertion rather than a counter heuristic.
	sentinel := fmt.Sprintf("alive-%d", seed)
	sc, err := dialDirect(p1.addr, protoFor(int(seed)))
	if err != nil {
		close(stopCh)
		wg.Wait()
		t.Fatalf("%s: sentinel dial: %v", replay, err)
	}
	if err := sc.Set("crash-sentinel", []byte(sentinel)); err != nil {
		close(stopCh)
		wg.Wait()
		t.Fatalf("%s: sentinel SET: %v", replay, err)
	}
	sc.Close()
	rng := rand.New(rand.NewSource(seed))
	time.Sleep(time.Duration(rng.Intn(40)) * time.Millisecond) // kill mid-traffic
	p1.kill()
	close(stopCh)
	wg.Wait()

	// Phase 2: restart from the same directory; acknowledged state must
	// be there, and the merged history must stay linearizable.
	p2 := startValoisd(t, bin, args...)
	c2, err := dialDirect(p2.addr, protoFor(int(seed)+1))
	if err != nil {
		t.Fatalf("%s: dial after restart: %v", replay, err)
	}
	v, found, err := c2.Get("crash-sentinel")
	if err != nil || !found || string(v) != sentinel {
		t.Fatalf("%s: sentinel after restart = %q,%v,%v; want %q — an acknowledged fsync=always write did not survive the crash\n%s",
			replay, v, found, err, sentinel, p2.wat.log())
	}

	phase2Stop := make(chan struct{}) // workers poll it; never closed here
	opsPer := testenv.Iters(40)
	for w := 0; w < chaosWorkers; w++ {
		wg.Add(1)
		go worker(chaosWorkers+w, opsPer, p2.addr, phase2Stop)
	}
	wg.Wait()

	// Read-back pass on a clean connection joins the history, so every
	// key's final value is checked against both lives' mutations.
	for k := 0; k < chaosKeys; k++ {
		if err, _ := h.doWireGet(c2, k); err != nil {
			t.Fatalf("%s: post-restart read-back GET: %v", replay, err)
		}
	}
	stats, err := c2.Stats()
	if err != nil {
		t.Fatalf("%s: post-restart STATS: %v", replay, err)
	}
	if got := stats["conn_panics"]; got != "0" {
		t.Errorf("%s: conn_panics = %s, want 0", replay, got)
	}
	// The sentinel proved recovery worked; the counter must agree (the
	// sentinel's record is in the snapshot or the tail, either way it
	// was replayed).
	if got := stats["recovery_replayed"]; got == "0" {
		t.Errorf("%s: recovery_replayed = 0 after a crash with acknowledged writes", replay)
	}
	c2.Close()

	if err := p2.term(t); err != nil {
		t.Errorf("%s: graceful shutdown after recovery: %v\n%s", replay, err, p2.wat.log())
	}
	waitNoGoroutineLeak(t, base, 3)
	checkWireHistory(t, h, replay)
}
