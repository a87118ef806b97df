package server_test

// Chaos suite: the whole serving stack — client, wire protocol, hardened
// server, every served §4 backend under each served memory mode — driven
// through the internal/faultnet proxy while a wire-level history is
// recorded and checked for linearizability against the KV specification
// (linearize.CheckKV). Faults are derived deterministically from the
// seed, so every failure report names the exact subtest to re-run.
//
// Chaos clients run with retries disabled: one logical operation is one
// wire attempt, so the server executes it at most once and an operation
// whose reply was lost is recorded Lost — the ambiguous-retry case the
// checker absorbs (it may have executed at any point after invocation,
// or never). Client-internal retries would instead let a stale first
// attempt land after its retry, making the at-most-once accounting
// wrong.
//
// Corruption is deliberately absent from the linearizability runs: the
// text protocol has no integrity layer, so a flipped byte can turn one
// valid reply into a different valid reply that no checker can
// distinguish from a server bug. TestChaosCorruptionSurvival exercises
// corruption separately, asserting survival rather than linearizability.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"valois/internal/client"
	"valois/internal/faultnet"
	"valois/internal/server"
	"valois/internal/testenv"
)

// chaosSeeds is the fixed replay matrix. Every seed fully determines the
// fault schedule, so re-running the subtest named in a failure report
// reproduces it.
var chaosSeeds = []int64{1, 2, 3, 5, 8, 13, 21, 34}

// matrixMode picks the memory mode for the chaos or crash-restart cell at
// rotation position pos, seed index si. Positions cycle over three slots:
// the first served mode, a spare slot that takes each served mode in turn
// by seed, and the last served mode, so every backend runs every served
// mode. The rotation is fixed, not sized to server.Modes(), so a cell keeps
// its subtest name — the replay handle in failure reports — when the set
// of served modes changes.
func matrixMode(pos, si int) string {
	modes := server.Modes()
	switch pos % 3 {
	case 0:
		return modes[0]
	case 2:
		return modes[len(modes)-1]
	}
	return modes[si%len(modes)]
}

const (
	chaosKeys      = 32
	chaosWorkers   = 3
	chaosOpTimeout = 500 * time.Millisecond
)

// chaosServerConfig hardens the server with deadlines short enough that
// injected stalls and half-dead connections are cut within the test.
func chaosServerConfig(backend, mode string) server.Config {
	return server.Config{
		Backend:      backend,
		Mode:         mode,
		IdleTimeout:  2 * time.Second,
		ReadTimeout:  time.Second,
		WriteTimeout: time.Second,
	}
}

// bootServer starts a server and returns an idempotent stop. Unlike
// startServer it is stoppable mid-test, so the goroutine-leak check can
// run inside the test body after an explicit shutdown.
func bootServer(t *testing.T, cfg server.Config) (*server.Server, string, func()) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
			if err := <-serveErr; !errors.Is(err, server.ErrServerClosed) {
				t.Errorf("Serve returned %v, want ErrServerClosed", err)
			}
		})
	}
	t.Cleanup(stop)
	return srv, ln.Addr().String(), stop
}

// dialChaos dials through the fault proxy, retrying because the proxy
// kills a fraction of connections at accept time.
func dialChaos(addr, protocol string) (*client.Client, error) {
	var err error
	for i := 0; i < 20; i++ {
		var c *client.Client
		c, err = client.Dial(addr, client.Options{
			ConnectTimeout: 2 * time.Second,
			OpTimeout:      chaosOpTimeout,
			Retries:        -1, // one logical op = one wire attempt
			Backoff:        time.Millisecond,
			Protocol:       protocol,
		})
		if err == nil {
			return c, nil
		}
	}
	return nil, err
}

func TestChaosLinearizable(t *testing.T) {
	for bi, backend := range server.Backends() {
		for si, seed := range chaosSeeds {
			// One position ahead of the crash-restart matrix, so the two
			// suites put most (backend, seed) cells under different modes.
			mode := matrixMode(bi+1+si, si)
			t.Run(fmt.Sprintf("%s-%s-seed%d", backend, mode, seed), func(t *testing.T) {
				runChaos(t, backend, mode, seed, chaosOps)
			})
		}
		// The hot-key arm (see hotKeyOps), once per memory mode, on
		// seeds two apart.
		for mi, mode := range server.Modes() {
			seed := chaosSeeds[(bi+1+2*mi)%len(chaosSeeds)]
			t.Run(fmt.Sprintf("%s-%s-seed%d-hotkey", backend, mode, seed), func(t *testing.T) {
				runChaos(t, backend, mode, seed, hotKeyOps)
			})
		}
	}
}

// chaosOps spreads GET/SET/DELETE 40/40/20 over chaosKeys keys.
var chaosOps = wireMix{keys: chaosKeys, gets: 4, sets: 4}

func runChaos(t *testing.T, backend, mode string, seed int64, mix wireMix) {
	replay := fmt.Sprintf("backend=%s mode=%s seed=%d", backend, mode, seed)
	base := goroutineBaseline()
	_, addr, stop := bootServer(t, chaosServerConfig(backend, mode))
	proxy, err := faultnet.NewProxy(addr, faultnet.ChaosFaults(seed))
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	defer proxy.Close()

	h := newWireHist(mix.keys)
	opsPer := testenv.Iters(100)
	fatal := make(chan error, chaosWorkers)
	var wg sync.WaitGroup
	for w := 0; w < chaosWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed<<8 + int64(w)))
			// Workers alternate wire protocols: every seed of the chaos
			// matrix faults text and RESP framing alike.
			c, err := dialChaos(proxy.Addr(), protoFor(w))
			if err != nil {
				fatal <- fmt.Errorf("worker %d dial: %w", w, err)
				return
			}
			defer c.Close()
			for i := 0; i < opsPer; i++ {
				k, ok := h.pickKey(rng.Intn)
				if !ok {
					return // every key is at its history budget
				}
				if err, bad := mix.op(h, c, k, rng.Intn(10)); bad {
					fatal <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(fatal)
	for err := range fatal {
		t.Fatalf("%s: %v", replay, err)
	}

	// The run must actually have exercised faults, or the seed matrix is
	// vacuous.
	if n := proxy.Stats().Snapshot().Total(); n == 0 {
		t.Errorf("%s: proxy injected no faults", replay)
	}

	// The server must still answer cleanly after the chaos: a direct
	// (unfaulted) read-back of every key, which also joins the history —
	// maxEventsPerKey leaves each key slack for exactly this pass.
	direct := dialTest(t, addr)
	for k := 0; k < mix.keys; k++ {
		if err, _ := h.doWireGet(direct, k); err != nil {
			t.Fatalf("%s: post-chaos GET on a clean connection: %v", replay, err)
		}
	}
	stats, err := direct.Stats()
	if err != nil {
		t.Fatalf("%s: post-chaos STATS: %v", replay, err)
	}
	if got := stats["conn_panics"]; got != "0" {
		t.Errorf("%s: conn_panics = %s, want 0", replay, got)
	}
	direct.Close()

	proxy.Close()
	stop()
	waitNoGoroutineLeak(t, base, 3)

	checkWireHistory(t, h, replay)
}

// TestChaosCorruptionSurvival turns byte corruption on. No history is
// checked — the protocol cannot detect flipped bytes, so linearizability
// is unfalsifiable here (see the package comment). What must hold: the
// server never panics, cuts poisoned connections, keeps serving clean
// ones, and leaks nothing.
func TestChaosCorruptionSurvival(t *testing.T) {
	base := goroutineBaseline()
	_, addr, stop := bootServer(t, chaosServerConfig(server.BackendSkipList, "gc"))
	proxy, err := faultnet.NewProxy(addr, faultnet.CorruptionFaults(0xC0FFEE))
	if err != nil {
		t.Fatalf("NewProxy: %v", err)
	}
	defer proxy.Close()

	opsPer := testenv.Iters(200)
	var wg sync.WaitGroup
	for w := 0; w < chaosWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(0xC0FFEE + int64(w)))
			var c *client.Client
			defer func() {
				if c != nil {
					c.Close()
				}
			}()
			for i := 0; i < opsPer; i++ {
				if c == nil {
					if c, _ = dialChaos(proxy.Addr(), protoFor(w)); c == nil {
						continue
					}
				}
				k := rng.Intn(chaosKeys)
				var err error
				switch rng.Intn(3) {
				case 0:
					_, _, err = c.Get(wireKey(k))
				case 1:
					err = c.Set(wireKey(k), []byte("v"))
				default:
					_, err = c.Delete(wireKey(k))
				}
				if err != nil {
					// A corrupted stream is desynced beyond recovery;
					// abandon the connection and start clean.
					c.Close()
					c = nil
				}
			}
		}()
	}
	wg.Wait()

	if n := proxy.Stats().Snapshot().Corruptions; n == 0 {
		t.Errorf("no corruption was injected; the survival run is vacuous")
	}

	// A clean connection must still get full service.
	direct := dialTest(t, addr)
	if err := direct.Set("survivor", []byte("ok")); err != nil {
		t.Fatalf("post-corruption SET on a clean connection: %v", err)
	}
	if v, found, err := direct.Get("survivor"); err != nil || !found || string(v) != "ok" {
		t.Fatalf("post-corruption GET = %q,%v,%v; want ok,true,nil", v, found, err)
	}
	stats, err := direct.Stats()
	if err != nil {
		t.Fatalf("post-corruption STATS: %v", err)
	}
	if got := stats["conn_panics"]; got != "0" {
		t.Errorf("conn_panics = %s, want 0", got)
	}
	direct.Close()

	proxy.Close()
	stop()
	waitNoGoroutineLeak(t, base, 3)
}
