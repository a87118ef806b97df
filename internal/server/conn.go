package server

import (
	"bufio"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"valois/internal/proto"
)

// conn is one client connection served by its own goroutine.
//
// Serving is batched (see batch.go): each loop iteration blocks for one
// request, then drains every further request that is already fully
// buffered — a pipelining client's whole burst — executes them as one
// batch, and answers with a single write. A client that sends one
// request at a time never batches and takes the same path it always did,
// one command per iteration.
//
// Graceful shutdown protocol: Shutdown marks every conn closing. A conn
// that is idle (blocked reading the next request) is closed immediately —
// it has no request in flight. A conn that is busy executing a batch
// finishes it, writes the replies, and then closes itself when it
// observes the closing mark. Either way no accepted request is abandoned
// mid-way.
type conn struct {
	srv *Server
	nc  net.Conn

	// entries and out are the batch scratch — the drained requests and
	// their encoded replies — reused across loop iterations and touched
	// only by the serving goroutine.
	entries []batchEntry
	out     []byte

	mu      sync.Mutex
	busy    bool // between reading a request and writing its reply
	closing bool
}

// setBusy flips the busy flag and reports whether shutdown was requested,
// so the handler can exit after finishing the current batch.
func (c *conn) setBusy(b bool) (closing bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.busy = b
	return c.closing
}

// beginShutdown is called (with srv.mu held) by Shutdown: idle conns are
// unblocked by closing the socket; busy conns will see the mark after
// their current batch.
func (c *conn) beginShutdown() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closing = true
	if !c.busy {
		c.nc.Close()
	}
}

const (
	connBufSize = 16 << 10

	// maxBatch caps how many requests one drain may accumulate, bounding
	// the entries scratch and the reply buffer a hostile pipeliner can
	// make a single connection hold.
	maxBatch = 256

	// maxIdleReply is the largest reply buffer a connection keeps between
	// batches; one that a burst grew past it is dropped after the write,
	// so an idle connection never pins a burst-sized buffer.
	maxIdleReply = 64 << 10
)

// countingReader counts bytes read off the socket into the server's
// bytes_in. It deliberately holds an io.Reader, not the net.Conn: the
// deadline for each read is armed by the serve loop before blocking.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	return n, err
}

// newCodec picks the wire codec for a connection whose first byte is
// first: the configured protocol, or — under auto — RESP exactly when
// the client opens with a '*' array header, which no text command can.
func (c *conn) newCodec(first byte) proto.ServerCodec {
	switch c.srv.cfg.Protocol {
	case proto.ProtocolText:
		return &proto.TextCodec{}
	case proto.ProtocolRESP:
		return &proto.RESPCodec{}
	default:
		if first == '*' {
			return &proto.RESPCodec{}
		}
		return &proto.TextCodec{}
	}
}

func (c *conn) serve() {
	defer c.srv.wg.Done()
	defer c.srv.removeConn(c)
	defer c.nc.Close()
	// Last-resort panic isolation: a panic anywhere in this handler
	// kills only this connection, never the server. The execution path
	// has its own recover (execAndReply) that still answers the client;
	// this one catches framework-level bugs.
	defer func() {
		if r := recover(); r != nil {
			c.srv.connPanics.Add(1)
			c.srv.cfg.Logf("connection %v: handler panic: %v", c.nc.RemoteAddr(), r)
		}
	}()

	br := bufio.NewReaderSize(&countingReader{r: c.nc, n: &c.srv.bytesIn}, connBufSize)
	var codec proto.ServerCodec // chosen from the first byte, once
	c.entries = make([]batchEntry, 0, 16)
	for {
		// Idle deadline: how long the client may think between requests.
		if d := c.srv.cfg.IdleTimeout; d > 0 {
			c.nc.SetReadDeadline(time.Now().Add(d))
		}
		first, err := br.Peek(1)
		if err != nil {
			// No request started: a clean disconnect, an idle-deadline
			// expiry, or a reset while the connection sat idle.
			c.srv.countNetErr(err)
			return
		}
		if codec == nil {
			codec = c.newCodec(first[0])
		}
		// Read deadline: once a request's first byte exists, the whole
		// command must arrive within ReadTimeout — a slow-loris client
		// dripping one byte at a time is cut here.
		if d := c.srv.cfg.ReadTimeout; d > 0 {
			c.nc.SetReadDeadline(time.Now().Add(d))
		}
		c.entries = c.readBatch(codec, br, c.entries[:0])
		if c.setBusy(true) {
			// Shutdown won the race before we started executing; the
			// batch was read but not begun, so dropping it is safe.
			return
		}
		var quit bool
		c.out, quit = c.execAndReply(codec, c.entries, c.out[:0])
		werr := c.writeReply(c.out)
		// The scratch outlives the batch: drop its references to request
		// values and results, or one deep pipeline would keep them
		// reachable for as long as the connection then sits idle.
		clear(c.entries)
		if cap(c.out) > maxIdleReply {
			c.out = nil
		}
		closing := c.setBusy(false)
		if quit || closing || werr != nil {
			return
		}
	}
}

// readBatch reads one request — blocking for it, the caller armed the
// deadline — then drains every request that is already fully buffered,
// so a pipelined burst becomes one batch. Complete() guards each extra
// read: ReadCommand is only called when the buffer provably holds a
// whole request (or a decidable error that consumes only buffered
// bytes), so draining never blocks on the socket. The drain stops at the
// first read error or QUIT — nothing after either gets a reply, so
// nothing after either may execute.
func (c *conn) readBatch(codec proto.ServerCodec, br *bufio.Reader, entries []batchEntry) []batchEntry {
	for {
		cmd, err := codec.ReadCommand(br)
		entries = append(entries, batchEntry{cmd: cmd, readErr: err})
		if err != nil || cmd.Verb == proto.VerbQuit {
			return entries
		}
		if len(entries) >= maxBatch {
			return entries
		}
		n := br.Buffered()
		if n == 0 {
			return entries
		}
		buffered, _ := br.Peek(n)
		if !codec.Complete(buffered) {
			return entries
		}
	}
}

// execAndReply executes a batch and encodes every reply, in request
// order, into dst. A panic during execution answers SERVER_ERROR in
// place of the batch's replies and closes this connection (execution may
// have half-happened, so per-entry replies cannot be trusted), while
// every other connection keeps being served.
func (c *conn) execAndReply(codec proto.ServerCodec, entries []batchEntry, dst []byte) (out []byte, quit bool) {
	out = dst
	defer func() {
		if r := recover(); r != nil {
			c.srv.connPanics.Add(1)
			c.srv.cfg.Logf("connection %v: exec panic: %v", c.nc.RemoteAddr(), r)
			out = codec.AppendServerError(out[:0], "internal error")
			quit = true
		}
	}()
	c.srv.execEntries(entries)
	if len(entries) > 1 {
		c.srv.batches.Add(1)
		c.srv.batchedOps.Add(int64(len(entries)))
	}
	for i := range entries {
		var q bool
		out, q = c.srv.appendEntryReply(codec, out, &entries[i])
		if q {
			// Only the batch's last entry can quit (the drain stops at
			// QUIT and read errors), so no reply is being skipped.
			return out, true
		}
	}
	return out, false
}

// writeReply sends a batch's replies with one write under the write
// deadline, classifying failures into the connection-health counters.
func (c *conn) writeReply(buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	if d := c.srv.cfg.WriteTimeout; d > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(d))
	}
	n, err := c.nc.Write(buf)
	c.srv.bytesOut.Add(int64(n))
	if err != nil {
		c.srv.countNetErr(err)
	}
	return err
}
