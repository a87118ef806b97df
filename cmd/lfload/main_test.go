package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

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

// TestLoadRunAgainstServer runs a short closed-loop load against a live
// in-process server and checks the exit code and the text summary.
func TestLoadRunAgainstServer(t *testing.T) {
	addr := startServer(t)
	var out, errw bytes.Buffer
	code := run([]string{
		"-addr", addr,
		"-conns", "8",
		"-d", "300ms",
		"-mix", "mixed",
		"-keyspace", "512",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("run exited %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	var ops, gets, getHits, sets, deletes, deleteHits, netErrs, protoErrs int64
	summary := out.String()[strings.Index(out.String(), "\n")+1:]
	if _, err := fmt.Sscanf(summary, "  %d ops: %d gets (%d hits), %d sets, %d deletes (%d hits); errors: network=%d protocol=%d",
		&ops, &gets, &getHits, &sets, &deletes, &deleteHits, &netErrs, &protoErrs); err != nil {
		t.Fatalf("summary line did not parse: %v\nstdout: %s", err, out.String())
	}
	if ops <= 0 || gets+sets+deletes != ops {
		t.Fatalf("op counts don't sum or counted no work:\n%s", summary)
	}
	if netErrs != 0 || protoErrs != 0 {
		t.Fatalf("clean loopback run drew errors:\n%s", summary)
	}
	if getHits == 0 {
		t.Fatalf("mixed run over 512 keys had zero GET hits:\n%s", summary)
	}
}

// TestLoadRunChaosMode runs -chaos against a live server: the run must
// inject faults, absorb the resulting transport errors, and still find
// the recorded history linearizable (exit 0).
func TestLoadRunChaosMode(t *testing.T) {
	addr := startServer(t)
	var out, errw bytes.Buffer
	code := run([]string{
		"-addr", addr,
		"-conns", "4",
		"-d", "500ms",
		"-mix", "mixed",
		"-keyspace", "64",
		"-chaos",
		"-chaos-seed", "7",
		"-timeout", "1s",
	}, &out, &errw)
	if code != 0 {
		t.Fatalf("chaos run exited %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "faults seeded with 7") {
		t.Fatalf("chaos seed not echoed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "linearizable=true") {
		t.Fatalf("chaos run exited 0 without a linearizable history:\n%s", out.String())
	}
	if strings.Contains(out.String(), "chaos: 0 faults") {
		t.Fatalf("chaos run injected no faults:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "protocol=0\n") {
		t.Fatalf("chaos run drew protocol errors:\n%s", out.String())
	}
}

func TestLoadRunBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-mix", "nonsense"},
		{"-dist", "gaussian"},
		{"-conns", "0"},
		// lfload drives, bench/ measures: the measuring flags are gone.
		{"-pipeline", "8"},
		{"-json", ""},
		{"-prefill", "1"},
	} {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

// TestLoadRunUnreachableServer must fail fast and nonzero.
func TestLoadRunUnreachableServer(t *testing.T) {
	// Grab a port and close it so nothing is listening.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var out, errw bytes.Buffer
	code := run([]string{
		"-addr", addr, "-conns", "2", "-d", "100ms",
		"-retries", "-1", "-timeout", "500ms",
	}, &out, &errw)
	if code == 0 {
		t.Fatalf("run against dead server exited 0\nstdout: %s", out.String())
	}
}
