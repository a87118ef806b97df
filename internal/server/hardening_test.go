package server_test

// Tests for the hardening layer: connection deadlines, the MaxConns
// accept gate, and panic isolation — each observed through the STATS
// counters it increments and through the goroutine-leak helper, so the
// defenses are demonstrably exercised, not just configured.

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"valois/internal/client"
	"valois/internal/proto"
	"valois/internal/server"
)

// TestSlowLorisCutByReadDeadline trickles a request one byte at a time,
// forever under the idle deadline but never completing a command: the
// read deadline must cut the connection, count a conn_timeout, and leak
// nothing.
func TestSlowLorisCutByReadDeadline(t *testing.T) {
	_, addr, stop := bootServer(t, server.Config{
		Backend:     server.BackendSkipList,
		IdleTimeout: 10 * time.Second, // never the cutter here
		ReadTimeout: 300 * time.Millisecond,
	})
	base := goroutineBaseline()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer nc.Close()

	closed := make(chan error, 1)
	go func() {
		nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, err := nc.Read(make([]byte, 64))
		closed <- err
	}()

	// Drip bytes of a GET far slower than the command completes but far
	// faster than the idle deadline — the classic slow loris.
	start := time.Now()
	for i := 0; i < 80; i++ {
		nc.SetWriteDeadline(time.Now().Add(time.Second))
		if _, err := nc.Write([]byte("G")); err != nil {
			break // server already cut us
		}
		time.Sleep(50 * time.Millisecond)
	}

	select {
	case err := <-closed:
		if err == nil {
			t.Fatal("server wrote a reply to an incomplete command")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("slow-loris connection was never cut")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cut took %v, want about the 300ms read deadline", elapsed)
	}
	nc.Close()

	c := dialTest(t, addr)
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats["conn_timeouts"] == "0" {
		t.Errorf("conn_timeouts = 0, want the slow-loris cut counted")
	}
	c.Close()

	waitNoGoroutineLeak(t, base, 1)
	stop()
}

// TestStallMidRequestCountsTimeout: a client that goes quiet inside a
// request — past its line, in a SET's data block or a RESP bulk — is cut
// by the read deadline without a reply and counted in conn_timeouts like
// one that stalls mid-line, while a client that closes there is told
// "truncated request": the first is the transport's failure, the second
// the client's.
func TestStallMidRequestCountsTimeout(t *testing.T) {
	_, addr, stop := bootServer(t, server.Config{
		Backend: server.BackendHash, ReadTimeout: 200 * time.Millisecond,
	})
	for i, partial := range []string{"SET k 10\r\nabc", "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$10\r\nabc"} {
		for _, closeWrite := range []bool{false, true} {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			nc.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := io.WriteString(nc, partial); err != nil {
				t.Fatalf("write: %v", err)
			}
			if closeWrite {
				nc.(*net.TCPConn).CloseWrite()
			}
			reply, err := io.ReadAll(nc)
			nc.Close()
			if err != nil {
				t.Fatalf("%q closeWrite=%v: read: %v", partial, closeWrite, err)
			}
			switch got := string(reply); {
			case closeWrite && !strings.Contains(got, "CLIENT_ERROR truncated request"):
				t.Errorf("%q then EOF: reply %q, want CLIENT_ERROR truncated request", partial, got)
			case !closeWrite && got != "":
				t.Errorf("%q then a stall: reply %q, want the connection cut without one", partial, got)
			}
		}
		c := dialTest(t, addr)
		stats, err := c.Stats()
		if err != nil {
			t.Fatalf("Stats: %v", err)
		}
		if got, want := stats["conn_timeouts"], strconv.Itoa(i+1); got != want {
			t.Errorf("conn_timeouts = %s after %d stalled requests, want %s", got, i+1, want)
		}
		c.Close()
	}
	stop()
}

// TestIdleTimeoutCutsIdleConn parks a connection that never sends a
// byte: the idle deadline must close it and count a conn_timeout.
func TestIdleTimeoutCutsIdleConn(t *testing.T) {
	_, addr, stop := bootServer(t, server.Config{
		Backend:     server.BackendSkipList,
		IdleTimeout: 200 * time.Millisecond,
	})
	base := goroutineBaseline()

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("server wrote to a connection that sent nothing")
	}
	nc.Close()

	c := dialTest(t, addr)
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats["conn_timeouts"] == "0" {
		t.Errorf("conn_timeouts = 0, want the idle cut counted")
	}
	c.Close()

	waitNoGoroutineLeak(t, base, 1)
	stop()
}

// TestMaxConnsGate fills the connection cap, verifies the over-cap dial
// is answered SERVER_ERROR and closed (with conn_rejected counted), and
// that capacity frees up when a connection leaves.
func TestMaxConnsGate(t *testing.T) {
	_, addr, stop := bootServer(t, server.Config{
		Backend:  server.BackendSkipList,
		MaxConns: 2,
	})
	base := goroutineBaseline()

	c1 := dialTest(t, addr)
	if err := c1.Set("a", []byte("1")); err != nil {
		t.Fatalf("Set on conn 1: %v", err)
	}
	c2 := dialTest(t, addr)
	if err := c2.Set("b", []byte("2")); err != nil {
		t.Fatalf("Set on conn 2: %v", err)
	}

	// Both slots are taken and provably registered; the next dial must be
	// answered with SERVER_ERROR and closed, without any command sent.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("over-cap Dial: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := bufio.NewReader(nc).ReadString('\n')
	if err != nil {
		t.Fatalf("reading rejection: %v", err)
	}
	if !strings.HasPrefix(line, "SERVER_ERROR") {
		t.Fatalf("rejection line = %q, want SERVER_ERROR", line)
	}
	if _, err := bufio.NewReader(nc).ReadString('\n'); err == nil {
		t.Fatal("rejected connection stayed open past its error line")
	}
	nc.Close()

	stats, err := c1.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats["conn_rejected"] == "0" {
		t.Errorf("conn_rejected = 0, want the over-cap dial counted")
	}

	// Freeing a slot restores service for new connections.
	c2.Close()
	var c3 *client.Client
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c3, err = client.Dial(addr, client.Options{Retries: -1, OpTimeout: time.Second})
		if err == nil {
			if err = c3.Set("c", []byte("3")); err == nil {
				break
			}
			c3.Close()
			c3 = nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	if c3 == nil || err != nil {
		t.Fatalf("no service after freeing a slot: %v", err)
	}
	c3.Close()
	c1.Close()

	waitNoGoroutineLeak(t, base, 1)
	stop()
}

// TestPanicIsolation injects a panic into dispatch (via the test-only
// hook): the panicking connection gets SERVER_ERROR and closes, every
// other connection keeps working, conn_panics counts it, and nothing
// leaks — one poisoned request cannot take the server down. Persistence
// is on, so the poisoned DELETE panics holding its key's logMu stripe:
// the bystander's next mutation of that key would hang on a leaked lock.
func TestPanicIsolation(t *testing.T) {
	srv, err := server.New(server.Config{Backend: server.BackendSkipList, PersistDir: t.TempDir()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Installed before Serve so no connection can race the write.
	srv.SetPanicHook(func(cmd proto.Command) {
		if cmd.Verb == proto.VerbDelete && cmd.Key == "boom" {
			panic("injected dispatch panic")
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	addr := ln.Addr().String()
	base := goroutineBaseline()

	bystander := dialTest(t, addr)
	if err := bystander.Set("x", []byte("1")); err != nil {
		t.Fatalf("bystander Set: %v", err)
	}

	victim := dialTest(t, addr)
	_, err = victim.Delete("boom")
	var re *proto.ReplyError
	if !errors.As(err, &re) || re.Kind != "SERVER_ERROR" {
		t.Fatalf("poisoned Delete error = %v, want SERVER_ERROR reply", err)
	}
	victim.Close()

	// The bystander connection — and the server as a whole — survive.
	if err := bystander.Set("x", []byte("2")); err != nil {
		t.Fatalf("bystander Set after panic: %v", err)
	}
	if err := bystander.Set("boom", []byte("3")); err != nil {
		t.Fatalf("bystander Set of the poisoned key after panic: %v", err)
	}
	if v, found, err := bystander.Get("x"); err != nil || !found || string(v) != "2" {
		t.Fatalf("bystander Get after panic = %q,%v,%v", v, found, err)
	}
	stats, err := bystander.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if stats["conn_panics"] != "1" {
		t.Errorf("conn_panics = %s, want 1", stats["conn_panics"])
	}
	bystander.Close()

	waitNoGoroutineLeak(t, base, 1)
}
