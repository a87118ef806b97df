package loadgen

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"
)

// ioTimeout bounds one batch round trip; every socket operation of the
// generator runs under a deadline armed from it.
const ioTimeout = 10 * time.Second

// Counts is what one connection sent and what the replies said.
type Counts struct {
	Gets, Sets, Dels, Ranges     int64
	GetHits, DelHits, RangeItems int64
}

// Ops is the number of acknowledged operations; a RANGE is one.
func (c Counts) Ops() int64 { return c.Gets + c.Sets + c.Dels + c.Ranges }

// Sub returns c minus o, field by field.
func (c Counts) Sub(o Counts) Counts {
	return Counts{c.Gets - o.Gets, c.Sets - o.Sets, c.Dels - o.Dels, c.Ranges - o.Ranges,
		c.GetHits - o.GetHits, c.DelHits - o.DelHits, c.RangeItems - o.RangeItems}
}

// Add returns c plus o, field by field.
func (c Counts) Add(o Counts) Counts {
	return Counts{c.Gets + o.Gets, c.Sets + o.Sets, c.Dels + o.Dels, c.Ranges + o.Ranges,
		c.GetHits + o.GetHits, c.DelHits + o.DelHits, c.RangeItems + o.RangeItems}
}

// Conn is one pipelining client connection. It is a closed loop: Do writes
// a batch and returns once the last reply of the batch has been read and
// checked. A Conn is used by one goroutine.
type Conn struct {
	nc    net.Conn
	br    *bufio.Reader
	tab   *Tables
	out   []byte
	items []uint32
	// Counts accumulates over the connection's lifetime; callers take
	// differences around the interval they measure.
	Counts Counts
}

// readBufSize exceeds any single value or line the workloads produce, so
// a value block can be compared in place by Peek.
const readBufSize = 64 << 10

// Dial connects to a valoisd at addr.
func Dial(addr string, tab *Tables) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	return NewConn(nc, tab), nil
}

// NewConn wraps an established connection.
func NewConn(nc net.Conn, tab *Tables) *Conn {
	return &Conn{nc: nc, br: bufio.NewReaderSize(nc, readBufSize), tab: tab}
}

// Close closes the connection.
func (c *Conn) Close() { c.nc.Close() }

// Check is called by Do for each reply, in request order, after the reply
// passed the scanner's own checks. items aliases scratch that the next
// reply overwrites.
type Check func(i int, hit bool, items []uint32) error

// Do sends ops as one pipelined batch and reads every reply. Each reply is
// checked for form and content (a GET hit must carry the key's value, a
// RANGE must be ascending from its start with intact values); check, if
// not nil, then compares it with what the caller expects. The first
// failure is returned and leaves the connection unusable.
func (c *Conn) Do(ops []Op, check Check) error {
	c.out = c.out[:0]
	for _, op := range ops {
		c.out = append(c.out, c.tab.Request(op)...)
	}
	if err := c.nc.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return err
	}
	if _, err := c.nc.Write(c.out); err != nil {
		return err
	}
	for i, op := range ops {
		wrong := func(err error) error {
			return fmt.Errorf("reply %d of batch (%s %s): %w", i, verbNames[op.Verb], c.tab.Keys[op.Key], err)
		}
		hit, err := c.readReply(op)
		if err != nil {
			return wrong(err)
		}
		switch op.Verb {
		case Get:
			c.Counts.Gets++
			if hit {
				c.Counts.GetHits++
			}
		case Set:
			c.Counts.Sets++
		case Del:
			c.Counts.Dels++
			if hit {
				c.Counts.DelHits++
			}
		case Range:
			c.Counts.Ranges++
			c.Counts.RangeItems += int64(len(c.items))
		}
		if check != nil {
			if err := check(i, hit, c.items); err != nil {
				return wrong(err)
			}
		}
	}
	return nil
}

var verbNames = [...]string{Get: "GET", Set: "SET", Del: "DEL", Range: "RANGE"}

// line reads one CRLF-terminated line, without the terminator.
func (c *Conn) line() ([]byte, error) {
	b, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	if len(b) < 2 || b[len(b)-2] != '\r' {
		return nil, fmt.Errorf("line %q not CRLF-terminated", b)
	}
	return b[:len(b)-2], nil
}

// block reads n data bytes and their CRLF. The slice is valid until the
// next read.
func (c *Conn) block(n int) ([]byte, error) {
	if n < 0 || n+2 > readBufSize {
		return nil, fmt.Errorf("data block of %d bytes", n)
	}
	b, err := c.br.Peek(n + 2)
	if err != nil {
		return nil, err
	}
	if b[n] != '\r' || b[n+1] != '\n' {
		return nil, errors.New("data block not CRLF-terminated")
	}
	c.br.Discard(n + 2)
	return b[:n], nil
}

// atoi parses a decimal integer without allocating; replies carry nothing
// but short plain numbers and "-1".
func atoi(b []byte) (int, error) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 9 {
		return 0, errors.New("bad number")
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, errors.New("bad number")
		}
		n = n*10 + int(c-'0')
	}
	if neg {
		n = -n
	}
	return n, nil
}

// readReply reads and checks the reply to op. hit is a GET or DEL hit; the
// key indices of a RANGE reply are left in c.items.
func (c *Conn) readReply(op Op) (hit bool, err error) {
	c.items = c.items[:0]
	line, err := c.line()
	if err != nil {
		return false, err
	}
	if isErrorReply(line) {
		return false, fmt.Errorf("error reply %q", line)
	}
	if c.tab.Text {
		return c.textReply(op, line)
	}
	return c.respReply(op, line)
}

func isErrorReply(line []byte) bool {
	return len(line) == 0 || line[0] == '-' || bytes.HasPrefix(line, []byte("ERROR")) ||
		bytes.HasPrefix(line, []byte("CLIENT_ERROR")) || bytes.HasPrefix(line, []byte("SERVER_ERROR"))
}

func (c *Conn) respReply(op Op, line []byte) (bool, error) {
	switch op.Verb {
	case Get:
		if line[0] != '$' {
			break
		}
		n, err := atoi(line[1:])
		if err != nil {
			break
		}
		if n == -1 {
			return false, nil
		}
		val, err := c.block(n)
		if err != nil {
			return false, err
		}
		return true, c.checkValue(op.Key, val)
	case Set:
		if string(line) == "+OK" {
			return false, nil
		}
	case Del:
		switch string(line) {
		case ":1":
			return true, nil
		case ":0":
			return false, nil
		}
	case Range:
		if line[0] != '*' {
			break
		}
		n, err := atoi(line[1:])
		if err != nil || n%2 != 0 {
			break
		}
		for i := 0; i < n/2; i++ {
			key, err := c.respBulk()
			if err != nil {
				return false, err
			}
			k, ok := c.tab.KeyIndex(key)
			if !ok {
				return false, fmt.Errorf("RANGE item key %q", key)
			}
			val, err := c.respBulk()
			if err != nil {
				return false, err
			}
			if err := c.addItem(op.Key, k, val); err != nil {
				return false, err
			}
		}
		return false, nil
	}
	return false, fmt.Errorf("unexpected reply %q", line)
}

func (c *Conn) respBulk() ([]byte, error) {
	line, err := c.line()
	if err != nil {
		return nil, err
	}
	if len(line) == 0 || line[0] != '$' {
		return nil, fmt.Errorf("want bulk string, got %q", line)
	}
	n, err := atoi(line[1:])
	if err != nil {
		return nil, fmt.Errorf("bulk header %q", line)
	}
	return c.block(n)
}

func (c *Conn) textReply(op Op, line []byte) (bool, error) {
	switch op.Verb {
	case Get:
		if string(line) == "END" {
			return false, nil
		}
		k, val, err := c.textValue(line)
		if err != nil {
			return false, err
		}
		if k != op.Key {
			return false, fmt.Errorf("GET answered with key %s", c.tab.Keys[k])
		}
		if err := c.checkValue(k, val); err != nil {
			return false, err
		}
		if end, err := c.line(); err != nil || string(end) != "END" {
			return false, fmt.Errorf("GET reply not closed by END: %q %v", end, err)
		}
		return true, nil
	case Set:
		if string(line) == "STORED" {
			return false, nil
		}
	case Del:
		switch string(line) {
		case "DELETED":
			return true, nil
		case "NOT_FOUND":
			return false, nil
		}
	case Range:
		for string(line) != "END" {
			k, val, err := c.textValue(line)
			if err != nil {
				return false, err
			}
			if err := c.addItem(op.Key, k, val); err != nil {
				return false, err
			}
			if line, err = c.line(); err != nil {
				return false, err
			}
		}
		return false, nil
	}
	return false, fmt.Errorf("unexpected reply %q", line)
}

// textValue parses a "VALUE <key> <n>" header line and reads its block.
func (c *Conn) textValue(line []byte) (uint32, []byte, error) {
	f := bytes.Fields(line)
	if len(f) != 3 || string(f[0]) != "VALUE" {
		return 0, nil, fmt.Errorf("want VALUE header, got %q", line)
	}
	k, ok := c.tab.KeyIndex(f[1])
	n, err := atoi(f[2])
	if !ok || err != nil {
		return 0, nil, fmt.Errorf("bad VALUE header %q", line)
	}
	val, err := c.block(n)
	return k, val, err
}

func (c *Conn) checkValue(k uint32, val []byte) error {
	if !bytes.Equal(val, c.tab.Vals[k]) {
		return fmt.Errorf("value of %s is %q", c.tab.Keys[k], val)
	}
	return nil
}

// addItem appends one RANGE item after checking what holds for any
// correct reply: at most RangeCount items, keys ascending from start, each
// value intact.
func (c *Conn) addItem(start, k uint32, val []byte) error {
	switch {
	case len(c.items) >= RangeCount:
		return fmt.Errorf("RANGE returned more than %d items", RangeCount)
	case k < start:
		return fmt.Errorf("RANGE item %s precedes start", c.tab.Keys[k])
	case len(c.items) > 0 && k <= c.items[len(c.items)-1]:
		return fmt.Errorf("RANGE item %s out of order", c.tab.Keys[k])
	}
	c.items = append(c.items, k)
	return c.checkValue(k, val)
}

// Stats sends STATS and returns the numeric lines of the reply.
func (c *Conn) Stats() (map[string]int64, error) {
	req := "*1\r\n$5\r\nSTATS\r\n"
	if c.tab.Text {
		req = "STATS\r\n"
	}
	if err := c.nc.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return nil, err
	}
	if _, err := c.nc.Write([]byte(req)); err != nil {
		return nil, err
	}
	stats := make(map[string]int64)
	put := func(name, value []byte) {
		if v, err := strconv.ParseInt(string(value), 10, 64); err == nil {
			stats[string(name)] = v
		}
	}
	line, err := c.line()
	if err != nil {
		return nil, err
	}
	if c.tab.Text {
		for string(line) != "END" {
			f := bytes.Fields(line)
			if len(f) != 3 || string(f[0]) != "STAT" {
				return nil, fmt.Errorf("want STAT line, got %q", line)
			}
			put(f[1], f[2])
			if line, err = c.line(); err != nil {
				return nil, err
			}
		}
		return stats, nil
	}
	n, err := atoi(bytes.TrimPrefix(line, []byte("*")))
	if err != nil || n%2 != 0 {
		return nil, fmt.Errorf("want STATS array, got %q", line)
	}
	for i := 0; i < n/2; i++ {
		name, err := c.respBulk()
		if err != nil {
			return nil, err
		}
		name = bytes.Clone(name) // the next read reuses the buffer
		value, err := c.respBulk()
		if err != nil {
			return nil, err
		}
		put(name, value)
	}
	return stats, nil
}
