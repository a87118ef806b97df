package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"valois/internal/proto"
)

// servePipe serves one connection of srv over net.Pipe and returns the
// client end, the served conn and a channel closed once serve returns —
// after which the conn's scratch is the test's to read. net.Pipe hands
// one Write to the reader whole, so a Write far below connBufSize is one
// batch by construction.
func servePipe(srv *Server) (client net.Conn, c *conn, served chan struct{}) {
	client, server := net.Pipe()
	c = &conn{srv: srv, nc: server}
	srv.wg.Add(1)
	served = make(chan struct{})
	go func() { c.serve(); close(served) }()
	return client, c, served
}

// TestBatchScratchDropsReferences: the entries and RANGE item scratch
// are reused for the life of a connection, so after a deep pipeline
// followed by a small batch no slot — live or beyond the live length —
// may still reference request values or results, or an idle connection
// would pin its largest burst (up to maxBatch × 1 MiB of values,
// 65 536-pair RANGE results). An item scratch the burst grew past
// maxIdleItems is dropped, not kept for the small batch.
func TestBatchScratchDropsReferences(t *testing.T) {
	const burstOps, filled = 48, 2 * maxIdleItems
	srv := newTestServer(t, Config{Backend: BackendSkipList, Mode: "gc"})
	for i := 0; i < filled; i++ {
		srv.put(fmt.Sprintf("fill%05d", i))
	}
	client, c, served := servePipe(srv)

	var burst strings.Builder
	for i := 0; i < burstOps; i++ {
		fmt.Fprintf(&burst, "SET key%02d 64\r\n%s\r\n", i, strings.Repeat("v", 64))
	}
	fmt.Fprintf(&burst, "GET key00\r\nRANGE fill %d\r\nSTATS\r\n", proto.MaxRange) // filled items
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
	roundTrip("RANGE key01 2\r\n", 1)
	client.Close()
	<-served // serve has returned: c's scratch is ours to read

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
	items := c.ranges.items[:cap(c.ranges.items)]
	if len(items) == 0 || len(items) > maxIdleItems {
		t.Fatalf("item scratch capacity %d after a 2-item RANGE following a %d-item one, want 1..%d", len(items), filled, maxIdleItems)
	}
	for i, it := range items {
		if it.key != "" || it.value != nil {
			t.Errorf("ranges.items[%d] still references key %q and %d value bytes", i, it.key, len(it.value))
		}
	}
}

// TestReplyBufferDroppedAfterBurst: the reply buffer is connection-owned
// scratch too. One that a burst grew past maxIdleReply is dropped after
// the write, so the connection goes on with a small buffer instead of
// pinning its largest reply for as long as it then sits idle.
func TestReplyBufferDroppedAfterBurst(t *testing.T) {
	srv := newTestServer(t, Config{Backend: BackendHash, Mode: "gc"})
	client, c, served := servePipe(srv)

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

// TestBatchRangesDoNotAlias: every RANGE of a batch appends to the same
// connection scratch, so one pipelined batch holding several RANGEs —
// the last one growing the scratch past everything before it —
// interleaved with SETs and DELETEs inside the ranges must answer
// byte for byte what the same requests answer sent one at a time.
func TestBatchRangesDoNotAlias(t *testing.T) {
	requests := [][]string{
		{"RANGE", "k010", "3"},
		{"SET", "k011", "new1"},
		{"DELETE", "k012"},
		{"RANGE", "k010", "3"},
		{"SET", "k010", "new2"},
		{"DELETE", "k013"},
		{"GET", "k011"},
		{"RANGE", "k009", "4"},
		{"SET", "k012", "back"},
		{"DELETE", "k150"},
		{"RANGE", "k000", "300"}, // every key: far past the scratch so far
		{"QUIT"},
	}
	encode := map[string]func(req []string) string{
		proto.ProtocolText: func(req []string) string {
			if req[0] == "SET" {
				return fmt.Sprintf("SET %s %d\r\n%s\r\n", req[1], len(req[2]), req[2])
			}
			return strings.Join(req, " ") + "\r\n"
		},
		proto.ProtocolRESP: func(req []string) string {
			enc := fmt.Sprintf("*%d\r\n", len(req))
			for _, arg := range req {
				enc += fmt.Sprintf("$%d\r\n%s\r\n", len(arg), arg)
			}
			return enc
		},
	}
	for _, protocol := range []string{proto.ProtocolText, proto.ProtocolRESP} {
		t.Run(protocol, func(t *testing.T) {
			// run serves requests on a fresh server, as one write or one
			// write per request, and returns every reply byte.
			run := func(oneWrite bool) []byte {
				srv := newTestServer(t, Config{Backend: BackendSkipList, Mode: "gc", Protocol: protocol})
				for i := 0; i < 200; i++ {
					srv.put(fmt.Sprintf("k%03d", i))
				}
				client, _, served := servePipe(srv)
				replies := make(chan []byte)
				go func() {
					b, _ := io.ReadAll(client) // until QUIT closes the pipe
					replies <- b
				}()
				var batch strings.Builder
				for _, req := range requests {
					if oneWrite {
						batch.WriteString(encode[protocol](req))
					} else if _, err := io.WriteString(client, encode[protocol](req)); err != nil {
						t.Fatalf("write %q: %v", req, err)
					}
				}
				if oneWrite {
					if _, err := io.WriteString(client, batch.String()); err != nil {
						t.Fatalf("write: %v", err)
					}
				}
				b := <-replies
				<-served
				want := 0
				if oneWrite {
					want = len(requests)
				}
				if got := srv.batchedOps.Load(); got != int64(want) {
					t.Fatalf("one write=%v: batched_ops = %d, want %d", oneWrite, got, want)
				}
				return b
			}
			batched, single := run(true), run(false)
			if string(batched) != string(single) {
				t.Errorf("pipelined replies differ from one-at-a-time replies:\n got %q\nwant %q", batched, single)
			}
			if !strings.Contains(string(single), "new2") || !strings.Contains(string(single), "back") {
				t.Fatalf("one-at-a-time replies miss the batch's writes: %q", single)
			}
		})
	}
}
