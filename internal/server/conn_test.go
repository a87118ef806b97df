package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"valois/internal/proto"
	"valois/internal/testenv"
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

// TestBatchScratchDropsReferences: the entries, GET run and RANGE item
// scratch are reused for the life of a connection, so after a deep pipeline
// followed by a small batch no slot — live or beyond the live length —
// may still reference request values or results, or an idle connection
// would pin its largest burst (up to maxBatch × 1 MiB of values,
// 65 536-pair RANGE results). An item scratch the burst grew past
// maxIdleItems is dropped, not kept for the small batch.
func TestBatchScratchDropsReferences(t *testing.T) {
	const burstOps, gets, filled = 48, 4, 2 * maxIdleItems
	srv := newTestServer(t, Config{Backend: BackendSkipList, Mode: "gc"})
	for i := 0; i < filled; i++ {
		srv.put(fmt.Sprintf("fill%05d", i))
	}
	client, c, served := servePipe(srv)

	var burst strings.Builder
	for i := 0; i < burstOps; i++ {
		fmt.Fprintf(&burst, "SET key%02d 64\r\n%s\r\n", i, strings.Repeat("v", 64))
	}
	// GET runs of 3 and 1: the second must not hide the first's slots.
	burst.WriteString("GET key00\r\nGET key01\r\nGET nokey\r\n")
	fmt.Fprintf(&burst, "RANGE fill %d\r\nGET key02\r\nSTATS\r\n", proto.MaxRange) // filled items
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
	roundTrip(burst.String(), gets+2) // each GET, RANGE and STATS ends in END
	roundTrip("RANGE key01 2\r\n", 1)
	client.Close()
	<-served // serve has returned: c's scratch is ours to read

	if got := srv.batchedOps.Load(); got != burstOps+gets+2 {
		t.Fatalf("batched_ops = %d, want the burst as one batch of %d", got, burstOps+gets+2)
	}
	all := c.entries[:cap(c.entries)]
	if len(all) < burstOps+gets+2 {
		t.Fatalf("scratch capacity %d, want >= %d", len(all), burstOps+gets+2)
	}
	for i := range all {
		e := &all[i]
		if e.cmd.Value != nil || e.val != nil || e.rangeItems != nil || e.statItems != nil {
			t.Errorf("entries[%d] still references value=%d val=%d rangeItems=%d statItems=%d bytes/items",
				i, len(e.cmd.Value), len(e.val), len(e.rangeItems), len(e.statItems))
		}
	}
	keys, vals := c.scratch.keys[:cap(c.scratch.keys)], c.scratch.vals[:cap(c.scratch.vals)]
	if len(keys) < 3 || len(vals) < 3 {
		t.Fatalf("GET run scratch capacity %d keys, %d values; want >= 3", len(keys), len(vals))
	}
	for i := range keys {
		if keys[i] != "" {
			t.Errorf("scratch.keys[%d] still references key %q", i, keys[i])
		}
	}
	for i := range vals {
		if vals[i] != nil {
			t.Errorf("scratch.vals[%d] still references %d value bytes", i, len(vals[i]))
		}
	}
	items := c.scratch.ranges.items[:cap(c.scratch.ranges.items)]
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

// encodeRequest encodes one request, given as its words (a SET's third
// word is the value), on protocol's wire.
func encodeRequest(protocol string, req []string) string {
	if protocol == proto.ProtocolRESP {
		enc := fmt.Sprintf("*%d\r\n", len(req))
		for _, arg := range req {
			enc += fmt.Sprintf("$%d\r\n%s\r\n", len(arg), arg)
		}
		return enc
	}
	if req[0] == "SET" {
		return fmt.Sprintf("SET %s %d\r\n%s\r\n", req[1], len(req[2]), req[2])
	}
	return strings.Join(req, " ") + "\r\n"
}

// serveBursts serves the bursts of requests, the last ending in QUIT,
// on a fresh server holding the keys k000..k199, and returns every reply
// byte. Pipelined, each burst is one write and so one batch (each burst
// must fit a batch); otherwise every request is its own write and no
// batch forms.
func serveBursts(t *testing.T, cfg Config, bursts [][][]string, pipelined bool) []byte {
	t.Helper()
	srv := newTestServer(t, cfg)
	for i := 0; i < 200; i++ {
		srv.put(fmt.Sprintf("k%03d", i))
	}
	client, _, served := servePipe(srv)
	replies := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(client) // until QUIT closes the pipe
		replies <- b
	}()
	requests := 0
	for _, burst := range bursts {
		var w strings.Builder
		for _, req := range burst {
			requests++
			if pipelined {
				w.WriteString(encodeRequest(cfg.Protocol, req))
			} else if _, err := io.WriteString(client, encodeRequest(cfg.Protocol, req)); err != nil {
				t.Fatalf("write %q: %v", req, err)
			}
		}
		if pipelined {
			if _, err := io.WriteString(client, w.String()); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
	}
	b := <-replies
	<-served
	wantOps, wantBatches := 0, 0
	if pipelined {
		wantOps, wantBatches = requests, len(bursts)
	}
	if ops, batches := srv.batchedOps.Load(), srv.batches.Load(); ops != int64(wantOps) || batches != int64(wantBatches) {
		t.Fatalf("pipelined=%v: batched_ops = %d in %d batches, want %d in %d", pipelined, ops, batches, wantOps, wantBatches)
	}
	return b
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
	for _, protocol := range []string{proto.ProtocolText, proto.ProtocolRESP} {
		t.Run(protocol, func(t *testing.T) {
			cfg := Config{Backend: BackendSkipList, Mode: "gc", Protocol: protocol}
			batched := serveBursts(t, cfg, [][][]string{requests}, true)
			single := serveBursts(t, cfg, [][][]string{requests}, false)
			if string(batched) != string(single) {
				t.Errorf("pipelined replies differ from one-at-a-time replies:\n got %q\nwant %q", batched, single)
			}
			if !strings.Contains(string(single), "new2") || !strings.Contains(string(single), "back") {
				t.Fatalf("one-at-a-time replies miss the batch's writes: %q", single)
			}
		})
	}
}

// TestBatchGetRunsInRequestOrder: a batch's runs of consecutive GETs are
// each one store.FindBatch, so runs of 1, 2, 64 and 65 GETs (one
// readRun of the skip list, and one more) and a whole batch of 256,
// with SETs and DELETEs of the keys they read between the runs, must
// answer byte for byte what the same requests answer sent one at a
// time, on every served backend, mode and protocol.
func TestBatchGetRunsInRequestOrder(t *testing.T) {
	gets := func(n, from int) [][]string {
		run := make([][]string, n)
		for i := range run {
			run[i] = []string{"GET", fmt.Sprintf("k%03d", (from+7*i)%230)} // k200.. are misses
		}
		return run
	}
	whole := gets(maxBatch, 0)
	var mixed [][]string
	for _, part := range [][][]string{
		gets(1, 10),
		{{"SET", "k010", "new1"}},
		gets(2, 10),
		{{"DELETE", "k017"}},
		gets(64, 10),
		{{"SET", "k017", "back"}, {"SET", "k206", "fresh"}},
		gets(65, 3),
		{{"DELETE", "k010"}},
		gets(2, 3),
		{{"QUIT"}},
	} {
		mixed = append(mixed, part...)
	}
	bursts := [][][]string{whole, mixed}
	for _, backend := range Backends() {
		for _, mode := range Modes() {
			for _, protocol := range []string{proto.ProtocolText, proto.ProtocolRESP} {
				t.Run(backend+"-"+mode+"-"+protocol, func(t *testing.T) {
					cfg := Config{Backend: backend, Mode: mode, Protocol: protocol}
					batched := serveBursts(t, cfg, bursts, true)
					single := serveBursts(t, cfg, bursts, false)
					if string(batched) != string(single) {
						t.Errorf("pipelined replies differ from one-at-a-time replies:\n got %q\nwant %q", batched, single)
					}
					for _, v := range []string{"new1", "back", "fresh"} {
						if !strings.Contains(string(single), v) {
							t.Fatalf("one-at-a-time replies miss the write of %q: %q", v, single)
						}
					}
				})
			}
		}
	}
}

// TestGetRunAllocs: a warm GET run allocates nothing — its keys, values
// and outcomes go through the connection's scratch, and the skip list's
// descents live in FindBatch's frame — on every served backend and mode.
func TestGetRunAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector allocates on its own")
	}
	for _, backend := range Backends() {
		for _, mode := range Modes() {
			t.Run(backend+"-"+mode, func(t *testing.T) {
				s := newTestServer(t, Config{Backend: backend, Mode: mode})
				for i := 0; i < 4096; i += 2 {
					s.put(fmt.Sprintf("key-%05d", i))
				}
				entries := make([]batchEntry, 96)
				for i := range entries {
					entries[i].cmd = proto.Command{Verb: proto.VerbGet, Key: fmt.Sprintf("key-%05d", i*37%4096)}
				}
				var sc batchScratch
				hits := 0
				got := testing.AllocsPerRun(100, func() {
					s.execEntries(entries, &sc)
					hits = 0
					for i := range entries {
						if entries[i].found {
							hits++
						}
					}
					sc.reset()
				})
				if got != 0 || hits == 0 || hits == len(entries) {
					t.Errorf("warm run of %d GETs: %.0f allocs, %d hits; want 0 allocs and both hits and misses", len(entries), got, hits)
				}
			})
		}
	}
}
