package server_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"valois/internal/client"
	"valois/internal/proto"
	"valois/internal/server"
)

// startServer boots a server on a loopback listener and tears it down with
// the test. It returns the server and its dial address.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
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
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; !errors.Is(err, server.ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return srv, ln.Addr().String()
}

func dialTest(t *testing.T, addr string) *client.Client {
	return dialTestProto(t, addr, proto.ProtocolText)
}

func dialTestProto(t *testing.T, addr, protocol string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr, client.Options{Protocol: protocol})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// protoFor alternates wire protocols by index, so a suite's worker pool
// exercises text and RESP against the same auto-detecting server in the
// same run.
func protoFor(i int) string {
	if i%2 == 1 {
		return proto.ProtocolRESP
	}
	return proto.ProtocolText
}

func TestServerBasicOps(t *testing.T) {
	for _, backend := range server.Backends() {
		for _, mode := range server.Modes() {
			for _, protocol := range []string{proto.ProtocolText, proto.ProtocolRESP} {
				t.Run(backend+"/"+mode+"/"+protocol, func(t *testing.T) {
					_, addr := startServer(t, server.Config{Backend: backend, Mode: mode, Buckets: 64})
					c := dialTestProto(t, addr, protocol)

					if _, found, err := c.Get("missing"); err != nil || found {
						t.Fatalf("Get(missing) = %v found=%v, want miss", err, found)
					}
					if err := c.Set("k1", []byte("v1")); err != nil {
						t.Fatalf("Set: %v", err)
					}
					if v, found, err := c.Get("k1"); err != nil || !found || string(v) != "v1" {
						t.Fatalf("Get(k1) = %q,%v,%v; want v1", v, found, err)
					}
					// SET replaces: the server upserts even though the paper's
					// Insert refuses duplicates.
					if err := c.Set("k1", []byte("v2")); err != nil {
						t.Fatalf("Set overwrite: %v", err)
					}
					if v, _, _ := c.Get("k1"); string(v) != "v2" {
						t.Fatalf("Get after overwrite = %q, want v2", v)
					}
					if deleted, err := c.Delete("k1"); err != nil || !deleted {
						t.Fatalf("Delete(k1) = %v,%v; want true", deleted, err)
					}
					if deleted, err := c.Delete("k1"); err != nil || deleted {
						t.Fatalf("second Delete(k1) = %v,%v; want false", deleted, err)
					}
					// Binary-safe values.
					raw := []byte("line1\r\nline2\x00\xff")
					if err := c.Set("bin", raw); err != nil {
						t.Fatalf("Set binary: %v", err)
					}
					if v, _, _ := c.Get("bin"); !bytes.Equal(v, raw) {
						t.Fatalf("Get binary = %q, want %q", v, raw)
					}
				})
			}
		}
	}
}

func TestServerRange(t *testing.T) {
	srv, addr := startServer(t, server.Config{Backend: server.BackendSkipList})
	c := dialTest(t, addr)
	if !srv.Ordered() {
		t.Fatal("skiplist backend should be ordered")
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := c.Set(fmt.Sprintf("key:%03d", i), []byte{byte(i)}); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	entries, err := c.Range("key:010", 20)
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	if len(entries) != 20 {
		t.Fatalf("Range returned %d entries, want 20", len(entries))
	}
	for i, e := range entries {
		want := fmt.Sprintf("key:%03d", 10+i)
		if e.Key != want {
			t.Fatalf("entries[%d].Key = %q, want %q", i, e.Key, want)
		}
	}
	// Count larger than remaining items.
	entries, err = c.Range("key:045", 100)
	if err != nil || len(entries) != 5 {
		t.Fatalf("tail Range = %d entries, %v; want 5", len(entries), err)
	}
}

func TestServerRangeUnorderedBackend(t *testing.T) {
	_, addr := startServer(t, server.Config{Backend: server.BackendHash, Buckets: 16})
	c := dialTest(t, addr)
	_, err := c.Range("a", 10)
	var re *proto.ReplyError
	if !errors.As(err, &re) || re.Kind != "CLIENT_ERROR" {
		t.Fatalf("Range on hash backend = %v, want CLIENT_ERROR reply", err)
	}
	// The connection survives a CLIENT_ERROR.
	if err := c.Set("a", []byte("1")); err != nil {
		t.Fatalf("Set after rejected RANGE: %v", err)
	}
}

func TestServerStats(t *testing.T) {
	for _, protocol := range []string{proto.ProtocolText, proto.ProtocolRESP} {
		t.Run(protocol, func(t *testing.T) { testServerStats(t, protocol) })
	}
}

func testServerStats(t *testing.T, protocol string) {
	_, addr := startServer(t, server.Config{Backend: server.BackendHash, Mode: "ebr"})
	c := dialTestProto(t, addr, protocol)
	for i := 0; i < 10; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatalf("Set: %v", err)
		}
	}
	c.Get("k1")
	c.Get("nope")
	c.Delete("k2")

	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	want := map[string]string{
		"backend":          "hash",
		"mode":             "ebr",
		"curr_items":       "9",
		"cmd_set":          "10",
		"get_hits":         "1",
		"get_misses":       "1",
		"delete_hits":      "1",
		"curr_connections": "1",
	}
	for k, v := range want {
		if stats[k] != v {
			t.Errorf("stats[%q] = %q, want %q", k, stats[k], v)
		}
	}
	// §5 manager counters: the deleted key's cell was retired, so under
	// ebr it is waiting in limbo or already reclaimed.
	if stats["mm_allocs"] == "0" || stats["mm_allocs"] == "" {
		t.Errorf("mm_allocs = %q, want > 0", stats["mm_allocs"])
	}
	if statInt(t, stats, "mm_limbo")+statInt(t, stats, "mm_reclaims") == 0 {
		t.Errorf("mm_limbo = %q, mm_reclaims = %q under ebr after a delete, want one > 0", stats["mm_limbo"], stats["mm_reclaims"])
	}
	// One dictionary: no shard count, no per-shard item lines.
	for name := range stats {
		if strings.HasPrefix(name, "shard") {
			t.Errorf("stats[%q] = %q: the shard lines should be gone", name, stats[name])
		}
	}
}

// TestNewRejectsUnservedConfig: the paper's single sorted list and its §5
// reference counts are not served; New rejects them, and made-up names,
// with errors that list the valid values.
func TestNewRejectsUnservedConfig(t *testing.T) {
	for _, tc := range []struct {
		cfg  server.Config
		want string
	}{
		{server.Config{Backend: "list"}, fmt.Sprint(server.Backends())},
		{server.Config{Backend: "btree"}, fmt.Sprint(server.Backends())},
		{server.Config{Mode: "rc"}, fmt.Sprint(server.Modes())},
		{server.Config{Mode: "arc"}, fmt.Sprint(server.Modes())},
	} {
		srv, err := server.New(tc.cfg)
		if err == nil {
			srv.Shutdown(context.Background())
			t.Errorf("New(backend=%q mode=%q) succeeded, want an error", tc.cfg.Backend, tc.cfg.Mode)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("New(backend=%q mode=%q) error %q does not list %s", tc.cfg.Backend, tc.cfg.Mode, err, tc.want)
		}
	}
}

// TestServerMalformedInput drives raw malformed bytes at the server: every
// line must draw ERROR/CLIENT_ERROR (never a panic), fatal framing errors
// must close the connection, and once the clients are gone the server must
// not have leaked connection goroutines.
func TestServerMalformedInput(t *testing.T) {
	baseline := goroutineBaseline()
	_, addr := startServer(t, server.Config{Backend: server.BackendSkipList})

	send := func(payload string) (replies []string) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := nc.Write([]byte(payload)); err != nil {
			t.Fatalf("Write: %v", err)
		}
		// Signal EOF so the server stops reading after the payload.
		nc.(*net.TCPConn).CloseWrite()
		sc := bufio.NewScanner(nc)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			replies = append(replies, sc.Text())
		}
		return replies
	}

	t.Run("unknown verb", func(t *testing.T) {
		replies := send("FROB x\r\nGET k\r\n")
		if len(replies) != 2 || replies[0] != "ERROR" || replies[1] != "END" {
			t.Fatalf("replies = %q, want [ERROR END]", replies)
		}
	})
	t.Run("bad arguments", func(t *testing.T) {
		replies := send("GET\r\nGET a b c\r\nRANGE x 0\r\nGET ok\r\n")
		if len(replies) != 4 {
			t.Fatalf("replies = %q, want 4 lines", replies)
		}
		for _, r := range replies[:3] {
			if !strings.HasPrefix(r, "CLIENT_ERROR") {
				t.Fatalf("reply %q, want CLIENT_ERROR", r)
			}
		}
		if replies[3] != "END" {
			t.Fatalf("final reply %q, want END", replies[3])
		}
	})
	t.Run("oversized line is fatal", func(t *testing.T) {
		replies := send("GET " + strings.Repeat("k", 4096) + "\r\nGET after\r\n")
		// One CLIENT_ERROR, then the connection closes: the trailing GET
		// must not be answered.
		if len(replies) != 1 || !strings.HasPrefix(replies[0], "CLIENT_ERROR") {
			t.Fatalf("replies = %q, want single CLIENT_ERROR", replies)
		}
	})
	t.Run("bad set framing is fatal", func(t *testing.T) {
		replies := send("SET k 5\r\nhelloXXGET after\r\n")
		if len(replies) != 1 || !strings.HasPrefix(replies[0], "CLIENT_ERROR") {
			t.Fatalf("replies = %q, want single CLIENT_ERROR", replies)
		}
	})
	t.Run("oversized value is fatal", func(t *testing.T) {
		replies := send(fmt.Sprintf("SET k %d\r\n", proto.MaxValueLen+1))
		if len(replies) != 1 || !strings.HasPrefix(replies[0], "CLIENT_ERROR") {
			t.Fatalf("replies = %q, want single CLIENT_ERROR", replies)
		}
	})
	t.Run("binary garbage", func(t *testing.T) {
		send("\x00\x01\x02\xff\xfe\r\n\r\n\x00\r\n")
	})

	// All test connections are closed; the per-connection goroutines must
	// drain. Allow the server's own accept goroutine and some slack for
	// runtime background goroutines.
	waitNoGoroutineLeak(t, baseline, 2)
}

// TestServerGracefulShutdown verifies Shutdown under live traffic: every
// in-flight request is answered or the connection is cleanly closed, and
// Shutdown returns without forcing the context.
func TestServerGracefulShutdown(t *testing.T) {
	srv, err := server.New(server.Config{Backend: server.BackendSkipList})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	// Hammer the server from several goroutines while shutdown fires.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{Retries: -1}) // no retries: observe raw close
			if err != nil {
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := c.Set(fmt.Sprintf("g%d-k%d", g, i), []byte("v")); err != nil {
					// The only acceptable failure is the connection being
					// closed by shutdown — never a garbled reply.
					var re *proto.ReplyError
					if errors.As(err, &re) {
						t.Errorf("got protocol error during shutdown: %v", err)
					}
					return
				}
			}
		}(g)
	}

	time.Sleep(50 * time.Millisecond) // let traffic build
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown during load: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := <-serveErr; !errors.Is(err, server.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	// New connections must be refused.
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("dial succeeded after Shutdown")
	}
}
