package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"valois/internal/client"
)

// syncBuffer is a bytes.Buffer safe for the concurrent writes run's
// serving and shutdown goroutines perform.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunServesAndDrainsOnSIGTERM boots valoisd on a loopback port, drives
// it with the client, sends the process SIGTERM, and requires exit code 0
// — the graceful-drain contract the Makefile smoke target also checks.
func TestRunServesAndDrainsOnSIGTERM(t *testing.T) {
	var logs syncBuffer
	ready := make(chan net.Addr, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run(
			[]string{"-addr", "127.0.0.1:0", "-backend", "skiplist", "-mode", "ebr"},
			&logs,
			func(a net.Addr) { ready <- a },
		)
	}()

	var addr net.Addr
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("server did not come up; logs:\n%s", logs.String())
	}

	c, err := client.Dial(addr.String(), client.Options{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if v, found, err := c.Get("k"); err != nil || !found || string(v) != "v" {
		t.Fatalf("Get = %q,%v,%v", v, found, err)
	}
	c.Close()

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("sending SIGTERM: %v", err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("run exited %d after SIGTERM, want 0; logs:\n%s", code, logs.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("run did not exit after SIGTERM; logs:\n%s", logs.String())
	}
}

// TestRunPprofAndProtocol boots valoisd with -protocol resp and a live
// -pprof listener, checks that a RESP client gets full service while a
// text client is refused, and fetches a profile page over HTTP — the
// observability contract of the -pprof flag.
func TestRunPprofAndProtocol(t *testing.T) {
	var logs syncBuffer
	ready := make(chan net.Addr, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run(
			[]string{"-addr", "127.0.0.1:0",
				"-protocol", "resp", "-pprof", "127.0.0.1:0"},
			&logs,
			func(a net.Addr) { ready <- a },
		)
	}()

	var addr net.Addr
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("server did not come up; logs:\n%s", logs.String())
	}

	c, err := client.Dial(addr.String(), client.Options{Protocol: "resp"})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatalf("Set over resp: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping over resp: %v", err)
	}
	c.Close()

	// A text client against a -protocol resp server must fail cleanly.
	tc, err := client.Dial(addr.String(), client.Options{OpTimeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("Dial (text): %v", err)
	}
	if err := tc.Set("k2", []byte("v")); err == nil {
		t.Fatalf("text SET against a resp-only server succeeded, want an error")
	}
	tc.Close()

	// The pprof listener logged its bound address; fetch a profile page.
	pprofAddr := ""
	deadline := time.Now().Add(5 * time.Second)
	for pprofAddr == "" {
		s := logs.String()
		if i := strings.Index(s, "pprof on "); i >= 0 {
			rest := s[i+len("pprof on "):]
			if j := strings.IndexAny(rest, " \n"); j > 0 {
				pprofAddr = rest[:j]
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("pprof address never logged; logs:\n%s", logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/mutex?debug=1")
	if err != nil {
		t.Fatalf("GET pprof mutex profile: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof mutex profile: status %d, err %v", resp.StatusCode, err)
	}
	if !strings.Contains(string(body), "mutex") {
		t.Fatalf("pprof mutex profile body looks wrong:\n%s", body)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("sending SIGTERM: %v", err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("run exited %d after SIGTERM, want 0; logs:\n%s", code, logs.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("run did not exit after SIGTERM; logs:\n%s", logs.String())
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	tests := []struct {
		args []string
		want int    // 2 = rejected by flag parsing, 1 = rejected by the server
		msg  string // if set, the log must contain it
	}{
		{[]string{"-backend", "btree"}, 1, ""},
		{[]string{"-mode", "arc"}, 1, ""},
		// The single sorted list and §5 reference counts are not served:
		// the server's unknown-value errors name what is.
		{[]string{"-backend", "list"}, 1, `unknown backend "list" (want one of [hash skiplist bst])`},
		{[]string{"-mode", "rc"}, 1, `unknown memory mode "rc" (want one of [gc ebr])`},
		{[]string{"-addr", "256.0.0.1:bad"}, 1, ""},
		{[]string{"-protocol", "gopher"}, 1, ""},
		{[]string{"-nosuchflag"}, 2, ""},
		{[]string{"-batch=false"}, 2, ""}, // batching is not optional
		{[]string{"-shards", "4"}, 2, ""}, // there is one dictionary, not a flag
	}
	for _, tc := range tests {
		var logs syncBuffer
		if code := run(tc.args, &logs, nil); code != tc.want {
			t.Errorf("run(%v) = %d, want %d", tc.args, code, tc.want)
		}
		if !strings.Contains(logs.String(), tc.msg) {
			t.Errorf("run(%v) logged %q, want it to contain %q", tc.args, logs.String(), tc.msg)
		}
	}
}
