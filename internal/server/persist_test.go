package server_test

// In-process durability tests: recovery round-trips across server
// restarts on every backend, the STATS durability counters, and
// snapshot compaction running while the server serves traffic. The
// crash-path (SIGKILL) coverage lives in crashrestart_test.go; these
// tests exercise the graceful path, where Shutdown's log flush makes
// even fsync=no lossless.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"valois/internal/client"
	"valois/internal/persist"
	"valois/internal/proto"
	"valois/internal/server"
	"valois/internal/testenv"
)

// bootPersist starts a server whose lifecycle the test drives explicitly
// (no t.Cleanup shutdown — restarts need deterministic stop points).
func bootPersist(t *testing.T, cfg server.Config) (*server.Server, string, func()) {
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
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		if err := <-serveErr; !errors.Is(err, server.ErrServerClosed) {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	}
	return srv, ln.Addr().String(), stop
}

func statInt(t *testing.T, stats map[string]string, name string) int {
	t.Helper()
	v, ok := stats[name]
	if !ok {
		t.Fatalf("STATS missing %q", name)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		t.Fatalf("STATS %s = %q, not a number", name, v)
	}
	return n
}

// TestServerRecovery round-trips state across a graceful restart on
// every backend × memory mode: sets (including overwrites), deletes,
// and a known survivor population, with an exact recovery_replayed
// assertion — the log must hold exactly the mutations that were
// acknowledged, nothing more.
func TestServerRecovery(t *testing.T) {
	for _, backend := range server.Backends() {
		for _, mode := range server.Modes() {
			t.Run(backend+"/"+mode, func(t *testing.T) {
				dir := t.TempDir()
				cfg := server.Config{
					Backend: backend, Mode: mode, Buckets: 64,
					PersistDir: dir, FsyncPolicy: "no",
				}
				_, addr, stop := bootPersist(t, cfg)
				c, err := client.Dial(addr, client.Options{})
				if err != nil {
					t.Fatalf("Dial: %v", err)
				}

				// 20 keys set, 5 of them overwritten, 5 others deleted,
				// one delete-miss (not a mutation, must not be logged).
				mutations := 0
				for i := 0; i < 20; i++ {
					if err := c.Set(key(i), []byte("v"+strconv.Itoa(i))); err != nil {
						t.Fatalf("Set: %v", err)
					}
					mutations++
				}
				for i := 0; i < 5; i++ {
					if err := c.Set(key(i), []byte("w"+strconv.Itoa(i))); err != nil {
						t.Fatalf("Set overwrite: %v", err)
					}
					mutations++
				}
				for i := 5; i < 10; i++ {
					if deleted, err := c.Delete(key(i)); err != nil || !deleted {
						t.Fatalf("Delete(%s) = %v, %v; want hit", key(i), deleted, err)
					}
					mutations++
				}
				if deleted, err := c.Delete("never-set"); err != nil || deleted {
					t.Fatalf("Delete(never-set) = %v, %v; want clean miss", deleted, err)
				}

				stats, err := c.Stats()
				if err != nil {
					t.Fatalf("Stats: %v", err)
				}
				if got := statInt(t, stats, "aof_records"); got != mutations {
					t.Errorf("aof_records = %d, want %d", got, mutations)
				}
				if statInt(t, stats, "aof_bytes") <= 0 {
					t.Errorf("aof_bytes = %s, want > 0", stats["aof_bytes"])
				}
				if got := statInt(t, stats, "recovery_replayed"); got != 0 {
					t.Errorf("recovery_replayed = %d on a fresh dir, want 0", got)
				}
				c.Close()
				stop()

				// Restart from disk and verify the exact surviving state.
				srv2, addr2, stop2 := bootPersist(t, cfg)
				defer stop2()
				if got := srv2.Recovery().Replayed(); got != mutations {
					t.Errorf("recovery replayed %d records, want %d", got, mutations)
				}
				c2, err := client.Dial(addr2, client.Options{})
				if err != nil {
					t.Fatalf("Dial after restart: %v", err)
				}
				defer c2.Close()
				for i := 0; i < 20; i++ {
					v, found, err := c2.Get(key(i))
					if err != nil {
						t.Fatalf("Get(%s): %v", key(i), err)
					}
					want, wantFound := "v"+strconv.Itoa(i), true
					switch {
					case i < 5:
						want = "w" + strconv.Itoa(i)
					case i < 10:
						wantFound = false
					}
					if found != wantFound || (found && string(v) != want) {
						t.Errorf("after restart Get(%s) = %q,%v; want %q,%v", key(i), v, found, want, wantFound)
					}
				}
				stats2, err := c2.Stats()
				if err != nil {
					t.Fatalf("Stats after restart: %v", err)
				}
				if got := statInt(t, stats2, "recovery_replayed"); got != mutations {
					t.Errorf("STATS recovery_replayed = %d, want %d", got, mutations)
				}
			})
		}
	}
}

func key(i int) string { return "rk:" + strconv.Itoa(i) }

// TestServerSnapshotWhileServing runs snapshot compaction concurrently
// with live SET/DELETE traffic, then restarts and checks the recovered
// state matches what the pre-restart server last acknowledged, key by
// key. Snapshots are cursor scans and must not block or corrupt anything
// — this is the server-level companion of persist's scan_test.
func TestServerSnapshotWhileServing(t *testing.T) {
	const keys = 64
	cfg := server.Config{
		Backend: server.BackendSkipList, Mode: "gc",
		PersistDir: t.TempDir(), FsyncPolicy: "no",
	}
	srv, addr, stop := bootPersist(t, cfg)

	var wg sync.WaitGroup
	stopCh := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				t.Errorf("writer dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				select {
				case <-stopCh:
					return
				default:
				}
				k := fmt.Sprintf("sk:%02d", (w*17+i)%keys)
				if i%5 == 4 {
					if _, err := c.Delete(k); err != nil {
						t.Errorf("writer delete: %v", err)
						return
					}
				} else if err := c.Set(k, []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Errorf("writer set: %v", err)
					return
				}
			}
		}(w)
	}
	runs := testenv.Iters(8)
	for i := 0; i < runs; i++ {
		if err := srv.Snapshot(); err != nil {
			t.Fatalf("Snapshot %d: %v", i, err)
		}
	}
	close(stopCh)
	wg.Wait()

	// Record the acknowledged final state, then restart and compare.
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	type kv struct {
		val   string
		found bool
	}
	final := make(map[string]kv, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("sk:%02d", i)
		v, found, err := c.Get(k)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		final[k] = kv{string(v), found}
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if got := statInt(t, stats, "snapshot_runs"); got != runs {
		t.Errorf("snapshot_runs = %d, want %d", got, runs)
	}
	if statInt(t, stats, "snapshot_last_unix") <= 0 {
		t.Errorf("snapshot_last_unix = %s, want > 0", stats["snapshot_last_unix"])
	}
	c.Close()
	stop()

	_, addr2, stop2 := bootPersist(t, cfg)
	defer stop2()
	c2, err := client.Dial(addr2, client.Options{})
	if err != nil {
		t.Fatalf("Dial after restart: %v", err)
	}
	defer c2.Close()
	for k, want := range final {
		v, found, err := c2.Get(k)
		if err != nil {
			t.Fatalf("Get(%s) after restart: %v", k, err)
		}
		if found != want.found || (found && string(v) != want.val) {
			t.Errorf("after restart %s = %q,%v; want %q,%v", k, v, found, want.val, want.found)
		}
	}
}

// TestServerSnapshotIntervalLoop exercises the background compaction
// goroutine end to end: with a short interval, snapshot_runs climbs on
// its own and shutdown stops the loop cleanly (the leak check is the
// assertion that matters).
func TestServerSnapshotIntervalLoop(t *testing.T) {
	base := goroutineBaseline()
	cfg := server.Config{
		Backend: server.BackendHash, Mode: "ebr",
		PersistDir: t.TempDir(), FsyncPolicy: "everysec",
		SnapshotInterval: 10 * time.Millisecond,
	}
	_, addr, stop := bootPersist(t, cfg)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Set(key(i), []byte("v")); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, err := c.Stats()
		if err != nil {
			t.Fatalf("Stats: %v", err)
		}
		if statInt(t, stats, "snapshot_runs") >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background snapshot loop never ran twice")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.Close()
	stop()
	waitNoGoroutineLeak(t, base, 2)
}

// TestServerPersistStatsDisabled pins that the durability counters are
// present (all zero) when persistence is off, so tooling can read them
// unconditionally.
func TestServerPersistStatsDisabled(t *testing.T) {
	_, addr := startServer(t, server.Config{Backend: server.BackendSkipList})
	c := dialTest(t, addr)
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	for _, name := range []string{"aof_records", "aof_bytes", "aof_fsyncs", "snapshot_runs", "snapshot_last_unix", "recovery_replayed", "persist_errors"} {
		if got := statInt(t, stats, name); got != 0 {
			t.Errorf("%s = %d with persistence disabled, want 0", name, got)
		}
	}
}

// TestBatchExecutesInRequestOrder pipelines one batch that mixes keys,
// verbs and RANGEs and checks it reads exactly like the same requests
// sent one at a time: every reply reflects all earlier requests of the
// batch and none of the later ones, and the AOF holds the batch's
// mutations in the order the connection sent them.
func TestBatchExecutesInRequestOrder(t *testing.T) {
	dir := t.TempDir()
	_, addr, stop := bootPersist(t, server.Config{
		Backend: server.BackendSkipList, PersistDir: dir, FsyncPolicy: "no",
	})
	var req, wantReply strings.Builder
	var wantLog []string
	set := func(k, v string) {
		fmt.Fprintf(&req, "SET %s %d\r\n%s\r\n", k, len(v), v)
		wantReply.WriteString("STORED\r\n")
		wantLog = append(wantLog, "SET "+k+" "+v)
	}
	del := func(k string, hit bool) {
		fmt.Fprintf(&req, "DELETE %s\r\n", k)
		if hit {
			wantReply.WriteString("DELETED\r\n")
			wantLog = append(wantLog, "DELETE "+k+" ")
		} else {
			wantReply.WriteString("NOT_FOUND\r\n") // a miss mutates nothing and is not logged
		}
	}
	read := func(request string, items ...string) { // items: key, value pairs
		req.WriteString(request + "\r\n")
		for i := 0; i < len(items); i += 2 {
			fmt.Fprintf(&wantReply, "VALUE %s %d\r\n%s\r\n", items[i], len(items[i+1]), items[i+1])
		}
		wantReply.WriteString("END\r\n")
	}
	for i := 0; i < 12; i++ { // twelve keys: several logMu stripes, some repeated
		set(fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
	}
	read("GET k03", "k03", "v3")
	del("k00", true)
	read("RANGE k00 3", "k01", "v1", "k02", "v2", "k03", "v3")
	set("k00", "again")
	del("k02", true)
	del("nope", false)
	read("GET k02")
	set("k02", "back")
	set("k01", "last")
	read("RANGE k00 3", "k00", "again", "k01", "last", "k02", "back")
	requests := 12 + 10

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	// One write far below the server's read buffer: one batch.
	if _, err := io.WriteString(nc, req.String()); err != nil {
		t.Fatalf("write: %v", err)
	}
	reply := make([]byte, wantReply.Len())
	if _, err := io.ReadFull(nc, reply); err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(reply) != wantReply.String() {
		t.Errorf("replies out of request order:\n got %q\nwant %q", reply, wantReply.String())
	}
	c := dialTest(t, addr)
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if got := statInt(t, stats, "batched_ops"); got != requests {
		t.Fatalf("batched_ops = %d: the pipeline did not arrive as one batch of %d", got, requests)
	}
	c.Close()
	stop()

	var gotLog []string
	log, _, err := persist.Open(dir, persist.PolicyNo, func(cmd proto.Command) error {
		gotLog = append(gotLog, fmt.Sprintf("%s %s %s", cmd.Verb, cmd.Key, cmd.Value))
		return nil
	}, nil)
	if err != nil {
		t.Fatalf("reopening the log: %v", err)
	}
	log.Close()
	if fmt.Sprint(gotLog) != fmt.Sprint(wantLog) {
		t.Errorf("AOF record order differs from request order:\n got %q\nwant %q", gotLog, wantLog)
	}
}
