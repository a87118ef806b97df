package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
)

// TestBatchScratchDropsReferences: the entries scratch is reused for the
// life of a connection, so after a deep pipeline followed by a small
// batch no slot — live or beyond the live length — may still reference
// request values or results, or an idle connection would pin its largest
// burst (up to maxBatch × 1 MiB of values, 65 536-pair RANGE results).
func TestBatchScratchDropsReferences(t *testing.T) {
	const burstOps = 48
	srv := newTestServer(t, Config{Backend: BackendSkipList, Mode: "gc"})

	// net.Pipe hands one Write to the reader whole (the burst is far
	// below connBufSize), so the burst is one batch by construction.
	client, server := net.Pipe()
	c := &conn{srv: srv, nc: server}
	srv.wg.Add(1)
	served := make(chan struct{})
	go func() { c.serve(); close(served) }()

	var burst strings.Builder
	for i := 0; i < burstOps; i++ {
		fmt.Fprintf(&burst, "SET key%02d 64\r\n%s\r\n", i, strings.Repeat("v", 64))
	}
	burst.WriteString("GET key00\r\nRANGE key00 8\r\nSTATS\r\n")
	replies := bufio.NewReader(client)
	// roundTrip sends req and reads replies up to the ends-th END line.
	roundTrip := func(req string, ends int) {
		t.Helper()
		if _, err := io.WriteString(client, req); err != nil {
			t.Fatalf("write: %v", err)
		}
		for ends > 0 {
			line, err := replies.ReadString('\n')
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if line == "END\r\n" {
				ends--
			}
		}
	}
	roundTrip(burst.String(), 3) // GET, RANGE and STATS each end in END
	roundTrip("GET key01\r\n", 1)
	client.Close()
	<-served // serve has returned: c.entries is ours to read

	if got := srv.batchedOps.Load(); got != burstOps+3 {
		t.Fatalf("batched_ops = %d, want the burst as one batch of %d", got, burstOps+3)
	}
	all := c.entries[:cap(c.entries)]
	if len(all) < burstOps+3 {
		t.Fatalf("scratch capacity %d, want >= %d", len(all), burstOps+3)
	}
	for i := range all {
		e := &all[i]
		if e.cmd.Value != nil || e.val != nil || e.rangeItems != nil || e.statItems != nil {
			t.Errorf("entries[%d] still references value=%d val=%d rangeItems=%d statItems=%d bytes/items",
				i, len(e.cmd.Value), len(e.val), len(e.rangeItems), len(e.statItems))
		}
	}
}

// TestReplyBufferDroppedAfterBurst: the reply buffer is connection-owned
// scratch too. One that a burst grew past maxIdleReply is dropped after
// the write, so the connection goes on with a small buffer instead of
// pinning its largest reply for as long as it then sits idle.
func TestReplyBufferDroppedAfterBurst(t *testing.T) {
	srv := newTestServer(t, Config{Backend: BackendHash, Mode: "gc"})
	client, server := net.Pipe()
	c := &conn{srv: srv, nc: server}
	srv.wg.Add(1)
	served := make(chan struct{})
	go func() { c.serve(); close(served) }()

	big := strings.Repeat("v", 2*maxIdleReply)
	replies := bufio.NewReader(client)
	for _, step := range []struct {
		req      string
		replyLen int
	}{
		{fmt.Sprintf("SET big %d\r\n%s\r\n", len(big), big), len("STORED\r\n")},
		{"GET big\r\n", len(fmt.Sprintf("VALUE big %d\r\n%s\r\nEND\r\n", len(big), big))},
		{"GET missing\r\n", len("END\r\n")},
	} {
		if _, err := io.WriteString(client, step.req); err != nil {
			t.Fatalf("%.12q: write: %v", step.req, err)
		}
		if _, err := io.ReadFull(replies, make([]byte, step.replyLen)); err != nil {
			t.Fatalf("%.12q: read: %v", step.req, err)
		}
	}
	client.Close()
	<-served // serve has returned: c.out is ours to read
	if cap(c.out) == 0 || cap(c.out) > maxIdleReply {
		t.Fatalf("reply buffer capacity %d after a small reply following a %d-byte one, want 1..%d",
			cap(c.out), len(big), maxIdleReply)
	}
}
