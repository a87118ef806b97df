// Package client is the Go client for valoisd (internal/server): the
// memcached-style text protocol or the RESP protocol of internal/proto
// over TCP, with connect timeouts, per-operation deadlines, bounded
// retry with exponential backoff on transient network errors, and a
// pipelined batch API that amortises round trips.
//
// A Client owns one connection and is not safe for concurrent use; open
// one Client per goroutine (connections are cheap — the server runs one
// goroutine per connection and the lock-free structures carry the
// concurrency).
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"valois/internal/proto"
)

// Options configures a Client. Zero values select the defaults.
type Options struct {
	// ConnectTimeout bounds Dial and reconnects. Default 5s.
	ConnectTimeout time.Duration
	// OpTimeout is the per-operation deadline, covering the write of the
	// request and the read of the full reply. A batch gets one OpTimeout
	// for the whole pipeline. Default 5s.
	OpTimeout time.Duration
	// Retries is how many times an operation is re-attempted after a
	// transient error (connection refused/reset, timeout). Replies from
	// the server — including error replies — are never retried. Default 2.
	Retries int
	// Backoff is the first retry's delay; it doubles per attempt.
	// Default 10ms.
	Backoff time.Duration
	// Protocol selects the wire protocol: proto.ProtocolText (the
	// default, also selected by "") or proto.ProtocolRESP. Both carry
	// the same commands; RESP requests are binary-safe and a server in
	// auto mode tells them apart from the first byte.
	Protocol string
}

func (o Options) withDefaults() Options {
	if o.ConnectTimeout <= 0 {
		o.ConnectTimeout = 5 * time.Second
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 5 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Backoff <= 0 {
		o.Backoff = 10 * time.Millisecond
	}
	if o.Protocol == "" {
		o.Protocol = proto.ProtocolText
	}
	return o
}

// Entry is one key-value item returned by Range.
type Entry struct {
	Key   string
	Value []byte
}

// Client is a connection to a valoisd server.
type Client struct {
	addr string
	opts Options
	resp bool
	nc   net.Conn
	br   *bufio.Reader
	enc  []byte // encoded request(s) of the operation in flight, reused across operations
}

// Dial connects to a valoisd server at addr.
func Dial(addr string, opts Options) (*Client, error) {
	c := &Client{addr: addr, opts: opts.withDefaults()}
	switch c.opts.Protocol {
	case proto.ProtocolText:
	case proto.ProtocolRESP:
		c.resp = true
	default:
		return nil, fmt.Errorf("client: unknown protocol %q (want text or resp)", c.opts.Protocol)
	}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Client) connect() error {
	nc, err := net.DialTimeout("tcp", c.addr, c.opts.ConnectTimeout)
	if err != nil {
		return err
	}
	c.nc = nc
	c.br = bufio.NewReader(nc)
	return nil
}

func (c *Client) dropConn() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// Close sends QUIT (best effort) and closes the connection.
func (c *Client) Close() error {
	if c.nc == nil {
		return nil
	}
	c.nc.SetDeadline(time.Now().Add(c.opts.OpTimeout))
	if c.encode(proto.Command{Verb: proto.VerbQuit}) == nil {
		c.nc.Write(c.enc)
	}
	err := c.nc.Close()
	c.nc = nil
	return err
}

// permanent reports whether err is a definitive server reply rather than a
// transport failure; such errors are returned without retrying.
func permanent(err error) bool {
	var re *proto.ReplyError
	return errors.As(err, &re)
}

// encode replaces the request scratch with the wire form of cmds in the
// connection's protocol. It fails on a command the protocol cannot carry
// (a key the grammar forbids), before anything has touched the wire.
func (c *Client) encode(cmds ...proto.Command) (err error) {
	c.enc = c.enc[:0]
	for _, cmd := range cmds {
		if c.resp {
			c.enc, err = proto.AppendRESPCommand(c.enc, cmd)
		} else {
			c.enc, err = proto.AppendCommand(c.enc, cmd)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// do sends cmds as one write and runs read to consume their replies,
// under the per-operation deadline, retrying on transient errors with
// exponential backoff and a fresh connection. Operations are therefore
// at-least-once: SET (an upsert) and GET are safe to repeat; a retried
// DELETE reports the outcome of its final attempt. An unencodable
// command is returned as is: it was never sent, so there is nothing to
// retry.
func (c *Client) do(read func() error, cmds ...proto.Command) error {
	err := c.encode(cmds...)
	if err != nil {
		return err
	}
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(c.opts.Backoff << (attempt - 1))
		}
		if c.nc == nil {
			if err = c.connect(); err != nil {
				continue
			}
		}
		c.nc.SetDeadline(time.Now().Add(c.opts.OpTimeout))
		if _, err = c.nc.Write(c.enc); err == nil {
			err = read()
		}
		if err == nil || permanent(err) {
			return err
		}
		c.dropConn()
	}
	return err
}

// Get fetches the value stored under key.
func (c *Client) Get(key string) (value []byte, found bool, err error) {
	err = c.do(func() error {
		value, found, err = c.readGetReply()
		return err
	}, proto.Command{Verb: proto.VerbGet, Key: key})
	return value, found, err
}

// Set stores value under key, replacing any existing value.
func (c *Client) Set(key string, value []byte) error {
	return c.do(c.readSetReply, proto.Command{Verb: proto.VerbSet, Key: key, Value: value})
}

// Delete removes key, reporting whether the server found it.
func (c *Client) Delete(key string) (deleted bool, err error) {
	err = c.do(func() error {
		deleted, err = c.readDeleteReply()
		return err
	}, proto.Command{Verb: proto.VerbDelete, Key: key})
	return deleted, err
}

// Range returns up to count entries with key ≥ start in ascending key
// order. The server rejects it on unordered (hash) backends.
func (c *Client) Range(start string, count int) (entries []Entry, err error) {
	err = c.do(func() error {
		if c.resp {
			entries, err = c.readRESPEntries()
			return err
		}
		entries, err = c.readValuesUntilEnd(count)
		return err
	}, proto.Command{Verb: proto.VerbRange, Key: start, Count: count})
	return entries, err
}

// Stats fetches the server's STATS map (see server.Server.Stats).
func (c *Client) Stats() (stats map[string]string, err error) {
	err = c.do(func() error {
		if c.resp {
			entries, err := c.readRESPEntries()
			if err != nil {
				return err
			}
			stats = make(map[string]string, len(entries))
			for _, e := range entries {
				stats[e.Key] = string(e.Value)
			}
			return nil
		}
		stats = make(map[string]string)
		for {
			fields, err := proto.ReadReplyLine(c.br)
			if err != nil {
				return err
			}
			switch {
			case fields[0] == proto.ReplyEnd:
				return nil
			case fields[0] == "STAT" && len(fields) == 3:
				stats[fields[1]] = fields[2]
			default:
				return fmt.Errorf("client: unexpected STATS reply line %v", fields)
			}
		}
	}, proto.Command{Verb: proto.VerbStats})
	return stats, err
}

// Ping round-trips a PING (RESP only; the text grammar has no PING).
func (c *Client) Ping() error {
	if !c.resp {
		return errors.New("client: PING requires the resp protocol")
	}
	return c.do(func() error {
		kind, rest, err := proto.ReadRESPLine(c.br)
		if err != nil {
			return err
		}
		if kind != '+' || string(rest) != "PONG" {
			return fmt.Errorf("client: unexpected PING reply %q", rest)
		}
		return nil
	}, proto.Command{Verb: proto.VerbPing})
}

// readGetReply consumes one GET reply in the connection's protocol.
func (c *Client) readGetReply() (value []byte, found bool, err error) {
	if c.resp {
		n, err := c.readRESPBulkHeader()
		if err != nil {
			return nil, false, err
		}
		if n < 0 {
			return nil, false, nil // $-1: miss
		}
		data, err := proto.ReadRESPBulkBody(c.br, n)
		if err != nil {
			return nil, false, err
		}
		return data, true, nil
	}
	entries, err := c.readValuesUntilEnd(1)
	if err != nil {
		return nil, false, err
	}
	if len(entries) == 1 {
		return entries[0].Value, true, nil
	}
	return nil, false, nil
}

// readSetReply consumes one SET reply ("STORED" / "+OK").
func (c *Client) readSetReply() error {
	if c.resp {
		kind, rest, err := proto.ReadRESPLine(c.br)
		if err != nil {
			return err
		}
		if kind != '+' || string(rest) != "OK" {
			return fmt.Errorf("client: unexpected SET reply %q", rest)
		}
		return nil
	}
	return c.expectLine(proto.ReplyStored)
}

// readDeleteReply consumes one DELETE reply ("DELETED"/"NOT_FOUND", or
// the RESP deleted-count integer).
func (c *Client) readDeleteReply() (deleted bool, err error) {
	if c.resp {
		kind, rest, err := proto.ReadRESPLine(c.br)
		if err != nil {
			return false, err
		}
		if kind != ':' {
			return false, fmt.Errorf("client: unexpected DELETE reply type %q", kind)
		}
		n, err := proto.ParseRESPInt(rest)
		if err != nil {
			return false, err
		}
		return n != 0, nil
	}
	fields, err := proto.ReadReplyLine(c.br)
	if err != nil {
		return false, err
	}
	switch fields[0] {
	case proto.ReplyDeleted:
		return true, nil
	case proto.ReplyNotFound:
		return false, nil
	default:
		return false, fmt.Errorf("client: unexpected DELETE reply %q", fields[0])
	}
}

// readRESPBulkHeader reads a '$' header and returns its declared length
// (negative for the null bulk).
func (c *Client) readRESPBulkHeader() (int, error) {
	kind, rest, err := proto.ReadRESPLine(c.br)
	if err != nil {
		return 0, err
	}
	if kind != '$' {
		return 0, fmt.Errorf("client: unexpected reply type %q, want bulk", kind)
	}
	n, err := proto.ParseRESPInt(rest)
	if err != nil {
		return 0, err
	}
	return int(n), nil
}

// readRESPEntries consumes a flat RESP array of key/value bulk pairs —
// the RANGE and STATS reply shape.
func (c *Client) readRESPEntries() ([]Entry, error) {
	kind, rest, err := proto.ReadRESPLine(c.br)
	if err != nil {
		return nil, err
	}
	if kind != '*' {
		return nil, fmt.Errorf("client: unexpected reply type %q, want array", kind)
	}
	n, err := proto.ParseRESPInt(rest)
	if err != nil {
		return nil, err
	}
	if n < 0 || n%2 != 0 {
		return nil, fmt.Errorf("client: bad pair-array length %d", n)
	}
	entries := make([]Entry, 0, n/2)
	for i := int64(0); i < n; i += 2 {
		klen, err := c.readRESPBulkHeader()
		if err != nil {
			return nil, err
		}
		key, err := proto.ReadRESPBulkBody(c.br, klen)
		if err != nil {
			return nil, err
		}
		vlen, err := c.readRESPBulkHeader()
		if err != nil {
			return nil, err
		}
		value, err := proto.ReadRESPBulkBody(c.br, vlen)
		if err != nil {
			return nil, err
		}
		entries = append(entries, Entry{Key: string(key), Value: value})
	}
	return entries, nil
}

// expectLine reads one reply line and requires its first token.
func (c *Client) expectLine(want string) error {
	fields, err := proto.ReadReplyLine(c.br)
	if err != nil {
		return err
	}
	if fields[0] != want {
		return fmt.Errorf("client: unexpected reply %q, want %q", fields[0], want)
	}
	return nil
}

// readValuesUntilEnd consumes VALUE blocks until END.
func (c *Client) readValuesUntilEnd(capHint int) ([]Entry, error) {
	var entries []Entry
	for {
		fields, err := proto.ReadReplyLine(c.br)
		if err != nil {
			return nil, err
		}
		switch {
		case fields[0] == proto.ReplyEnd:
			return entries, nil
		case fields[0] == "VALUE" && len(fields) == 3:
			data, err := proto.ReadValueBlock(c.br, fields[2])
			if err != nil {
				return nil, err
			}
			if entries == nil {
				entries = make([]Entry, 0, capHint)
			}
			entries = append(entries, Entry{Key: fields[1], Value: data})
		default:
			return nil, fmt.Errorf("client: unexpected reply line %v", fields)
		}
	}
}

// Batch accumulates pipelined operations for Client.Do. Operations are
// executed by the server in order; replies come back in the same order.
type Batch struct {
	cmds []proto.Command
}

// Get queues a GET.
func (b *Batch) Get(key string) {
	b.cmds = append(b.cmds, proto.Command{Verb: proto.VerbGet, Key: key})
}

// Set queues a SET.
func (b *Batch) Set(key string, value []byte) {
	b.cmds = append(b.cmds, proto.Command{Verb: proto.VerbSet, Key: key, Value: value})
}

// Delete queues a DELETE.
func (b *Batch) Delete(key string) {
	b.cmds = append(b.cmds, proto.Command{Verb: proto.VerbDelete, Key: key})
}

// Len reports the number of queued operations.
func (b *Batch) Len() int { return len(b.cmds) }

// Reset empties the batch, keeping its capacity for reuse — together
// with DoInto this makes a steady-state pipelining loop allocation-free.
func (b *Batch) Reset() { b.cmds = b.cmds[:0] }

// Result is the outcome of one batched operation, in queue order.
type Result struct {
	Key   string
	Value []byte // GET hit payload
	Found bool   // GET hit / DELETE deleted
}

// Do executes the batch as one pipeline: every request is written before
// any reply is read, so the pipeline costs one round trip instead of
// Len(). The whole batch shares one OpTimeout and is retried as a unit on
// transient errors (all batchable verbs are idempotent upserts/lookups,
// so a replay is safe).
func (c *Client) Do(b *Batch) ([]Result, error) {
	return c.DoInto(b, nil)
}

// DoInto is Do appending results into dst (reusing its capacity),
// returning the extended slice. dst must be empty or freshly truncated.
func (c *Client) DoInto(b *Batch, dst []Result) (results []Result, err error) {
	if b.Len() == 0 {
		return dst, nil
	}
	err = c.do(func() error {
		results = dst[:0]
		for _, cmd := range b.cmds {
			r := Result{Key: cmd.Key}
			switch cmd.Verb {
			case proto.VerbGet:
				r.Value, r.Found, err = c.readGetReply()
				if err != nil {
					return err
				}
			case proto.VerbSet:
				if err := c.readSetReply(); err != nil {
					return err
				}
				r.Found = true
			case proto.VerbDelete:
				r.Found, err = c.readDeleteReply()
				if err != nil {
					return err
				}
			}
			results = append(results, r)
		}
		return nil
	}, b.cmds...)
	if err != nil {
		return dst[:0], err
	}
	return results, nil
}
