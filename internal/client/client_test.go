package client_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"valois/internal/client"
	"valois/internal/server"
)

func startServer(t *testing.T) string {
	t.Helper()
	srv, err := server.New(server.Config{Backend: server.BackendSkipList})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

func TestBatchPipeline(t *testing.T) {
	addr := startServer(t)
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()

	const n = 100
	var setB client.Batch
	for i := 0; i < n; i++ {
		setB.Set(fmt.Sprintf("b:%03d", i), []byte(fmt.Sprintf("val%d", i)))
	}
	results, err := c.Do(&setB)
	if err != nil {
		t.Fatalf("Do(set batch): %v", err)
	}
	if len(results) != n {
		t.Fatalf("set batch returned %d results, want %d", len(results), n)
	}

	// A mixed pipeline: hits, misses, and deletes interleaved; replies
	// must come back in queue order.
	var mixed client.Batch
	mixed.Get("b:000")
	mixed.Get("absent")
	mixed.Delete("b:001")
	mixed.Delete("absent")
	mixed.Get("b:001")
	results, err = c.Do(&mixed)
	if err != nil {
		t.Fatalf("Do(mixed batch): %v", err)
	}
	if len(results) != 5 {
		t.Fatalf("mixed batch returned %d results, want 5", len(results))
	}
	if !results[0].Found || !bytes.Equal(results[0].Value, []byte("val0")) {
		t.Errorf("results[0] = %+v, want hit val0", results[0])
	}
	if results[1].Found {
		t.Errorf("results[1] = %+v, want miss", results[1])
	}
	if !results[2].Found {
		t.Errorf("results[2] = %+v, want deleted=true", results[2])
	}
	if results[3].Found {
		t.Errorf("results[3] = %+v, want deleted=false", results[3])
	}
	if results[4].Found {
		t.Errorf("results[4] = %+v, want miss after delete", results[4])
	}

	// Empty batch is a no-op.
	if results, err := c.Do(&client.Batch{}); err != nil || results != nil {
		t.Fatalf("Do(empty) = %v, %v; want nil, nil", results, err)
	}
}

// TestForbiddenKeyNeverSent: a key the wire grammar forbids is refused
// by the encoder before anything is written, on both protocols, alone or
// inside a batch. Sent as it is, "k " would read key k over text, and a
// key carrying CRLF would smuggle a second command and desynchronise the
// reply stream — so after each refusal the connection must still be in
// step, and neither the aliased nor the smuggled key may have been
// touched.
func TestForbiddenKeyNeverSent(t *testing.T) {
	addr := startServer(t)
	for _, protocol := range []string{"text", "resp"} {
		c, err := client.Dial(addr, client.Options{Protocol: protocol})
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		for _, k := range []string{"k", "a", "b"} {
			if err := c.Set(k, []byte("kept")); err != nil {
				t.Fatalf("%s Set(%q): %v", protocol, k, err)
			}
		}
		if v, found, err := c.Get("k "); err == nil {
			t.Errorf("%s Get(%q) = %q, %v: sent a key the grammar forbids", protocol, "k ", v, found)
		}
		if deleted, err := c.Delete("a\r\nDELETE b"); err == nil {
			t.Errorf("%s Delete with CRLF in the key = %v: sent a key the grammar forbids", protocol, deleted)
		}
		var b client.Batch
		b.Get("k")
		b.Delete("a\r\nDELETE b")
		if res, err := c.Do(&b); err == nil {
			t.Errorf("%s Do with a forbidden key = %v: sent", protocol, res)
		}
		for _, k := range []string{"k", "a", "b"} {
			if v, found, err := c.Get(k); err != nil || !found || string(v) != "kept" {
				t.Errorf("%s Get(%q) after the refusals = %q, %v, %v; want kept", protocol, k, v, found, err)
			}
		}
		c.Close()
	}
}

// TestRetryReconnect drops the client's first connection before serving
// any request; the retry path must reconnect and complete the operation.
func TestRetryReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srv, err := server.New(server.Config{Backend: server.BackendSkipList})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Sabotage the first connection, then hand the listener to the server.
	firstKilled := make(chan struct{})
	go func() {
		nc, err := ln.Accept()
		if err == nil {
			nc.Close()
		}
		close(firstKilled)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	c, err := client.Dial(ln.Addr().String(), client.Options{
		Retries: 3,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	<-firstKilled
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatalf("Set through retry: %v", err)
	}
	if v, found, err := c.Get("k"); err != nil || !found || string(v) != "v" {
		t.Fatalf("Get after retry = %q,%v,%v", v, found, err)
	}
}

// TestOpDeadline points the client at a listener that never replies; the
// per-operation deadline must fail the call instead of hanging.
func TestOpDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			defer nc.Close() // hold the connection open, never reply
		}
	}()

	c, err := client.Dial(ln.Addr().String(), client.Options{
		OpTimeout: 50 * time.Millisecond,
		Retries:   -1,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	start := time.Now()
	_, _, err = c.Get("k")
	if err == nil {
		t.Fatal("Get against mute server succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("error = %v, want net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v, want ~50ms", elapsed)
	}
}

// TestDialFailure exercises the connect path against a port that was just
// released: Dial must fail rather than hang.
func TestDialFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := client.Dial(addr, client.Options{ConnectTimeout: time.Second}); err == nil {
		t.Fatal("Dial to closed port succeeded")
	}
}
