package main

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"valois/internal/server"
)

func testServer(t *testing.T) string {
	t.Helper()
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
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveErr
	})
	return ln.Addr().String()
}

func ctl(addr string, args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(append([]string{"-addr", addr}, args...), &out, &errw)
	return code, out.String(), errw.String()
}

func TestCtlRoundTrip(t *testing.T) {
	addr := testServer(t)

	if code, _, errw := ctl(addr, "set", "k", "hello"); code != 0 {
		t.Fatalf("set exit %d: %s", code, errw)
	}
	code, out, errw := ctl(addr, "get", "k")
	if code != 0 || out != "hello\n" {
		t.Fatalf("get = %d %q: %s", code, out, errw)
	}
	// Miss is the durability-probe contract: exit 1, no output.
	if code, out, _ := ctl(addr, "get", "absent"); code != 1 || out != "" {
		t.Fatalf("get absent = %d %q, want exit 1 and no output", code, out)
	}
	if code, _, _ := ctl(addr, "delete", "k"); code != 0 {
		t.Fatalf("delete hit exit %d, want 0", code)
	}
	if code, _, _ := ctl(addr, "delete", "k"); code != 1 {
		t.Fatalf("delete miss exit %d, want 1", code)
	}
	code, out, errw = ctl(addr, "stats")
	if code != 0 {
		t.Fatalf("stats exit %d: %s", code, errw)
	}
	for _, want := range []string{"backend skiplist", "aof_records 0", "cmd_set 1"} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}

func TestCtlUsageErrors(t *testing.T) {
	addr := testServer(t)
	for _, args := range [][]string{
		{},
		{"set", "k"},
		{"get"},
		{"frobnicate", "k"},
	} {
		if code, _, _ := ctl(addr, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
	if code, _, _ := ctl("127.0.0.1:1", "get", "k"); code != 2 {
		t.Errorf("dead address: exit not 2")
	}
}
