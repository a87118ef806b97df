// Package proto defines the valoisd wire protocol: a small memcached-style
// text protocol over TCP that exposes the paper's §4 dictionary operations
// as network verbs. Requests are a single CRLF-terminated line (SET adds a
// value block); replies are lines, with GET/RANGE streaming VALUE blocks
// terminated by END.
//
//	GET <key>                  → VALUE <key> <n>\r\n<data>\r\n END | END
//	SET <key> <n>\r\n<data>    → STORED
//	DELETE <key>               → DELETED | NOT_FOUND
//	RANGE <start> <count>      → VALUE... END
//	STATS                      → STAT <name> <value>... END
//	QUIT                       → (connection closes)
//
// Malformed requests draw "ERROR" (unknown verb) or "CLIENT_ERROR <msg>"
// (bad arguments). Errors that desynchronise framing — an over-long line,
// or a SET data block without its CRLF terminator — are fatal: the server
// replies and closes the connection, since the byte stream can no longer
// be parsed reliably.
//
// Both ends of the protocol live on this package: the server
// (internal/server) reads commands and writes replies, the client
// (internal/client) writes commands and reads replies.
package proto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Verb identifies a protocol command.
type Verb int

const (
	VerbGet Verb = iota + 1
	VerbSet
	VerbDelete
	VerbRange
	VerbStats
	VerbQuit
	// VerbPing exists only on the RESP protocol (redis-benchmark and
	// redis clients probe with it); the text grammar has no PING and the
	// canonical AOF encoding rejects it, so it can never be persisted.
	VerbPing
)

// String returns the verb's wire spelling.
func (v Verb) String() string {
	switch v {
	case VerbGet:
		return "GET"
	case VerbSet:
		return "SET"
	case VerbDelete:
		return "DELETE"
	case VerbRange:
		return "RANGE"
	case VerbStats:
		return "STATS"
	case VerbQuit:
		return "QUIT"
	case VerbPing:
		return "PING"
	default:
		return "INVALID"
	}
}

// Wire limits. Keys are short tokens (no spaces or control bytes); values
// are arbitrary bytes up to MaxValueLen; request lines never legitimately
// exceed MaxLineLen.
const (
	MaxKeyLen   = 250
	MaxValueLen = 1 << 20
	MaxRange    = 1 << 16
	MaxLineLen  = 512
)

// Command is one parsed request.
type Command struct {
	Verb  Verb
	Key   string // GET, SET, DELETE; RANGE start key
	Value []byte // SET payload
	Count int    // RANGE item budget
}

// ClientError is a request the peer formed badly: the connection survives
// (the server replies CLIENT_ERROR and keeps reading) unless Fatal is
// set, which means request framing was lost and the connection must
// close after the reply.
type ClientError struct {
	Msg   string
	Fatal bool
}

func (e *ClientError) Error() string { return e.Msg }

// ErrUnknownVerb is returned by ReadCommand for an unrecognised verb; the
// server replies "ERROR" and keeps the connection open.
var ErrUnknownVerb = errors.New("unknown command verb")

func clientErr(fatal bool, format string, args ...any) error {
	return &ClientError{Msg: fmt.Sprintf(format, args...), Fatal: fatal}
}

// readLine reads one CRLF- (or bare-LF-) terminated line of at most
// MaxLineLen bytes, excluding the terminator. Over-long lines are a fatal
// client error: the reader cannot tell where the next request starts.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull || (err == nil && len(line) > MaxLineLen+2) {
		return nil, clientErr(true, "request line exceeds %d bytes", MaxLineLen)
	}
	if err != nil {
		// Bytes without a newline followed by EOF: a truncated request.
		if err == io.EOF && len(line) > 0 {
			return nil, clientErr(true, "truncated request line")
		}
		return nil, err
	}
	line = line[:len(line)-1]
	line = bytes.TrimSuffix(line, []byte{'\r'})
	return line, nil
}

// asciiFields splits a line into tokens separated by runs of ASCII space
// or tab. bytes.Fields would split on Unicode whitespace, which is wider
// than what validKey (a byte-level check) forbids inside keys — a key
// containing U+2000 would then encode fine on the client but tokenize
// apart on the server (found by FuzzCommandRoundTrip). The wire grammar
// is byte-oriented; so is the tokenizer.
func asciiFields(line []byte) [][]byte {
	return asciiFieldsInto(nil, line)
}

// asciiFieldsInto is asciiFields appending into a caller-owned scratch
// slice, so per-command tokenizing on the serving hot path does not
// allocate (the codecs keep the scratch across commands).
func asciiFieldsInto(fields [][]byte, line []byte) [][]byte {
	for len(line) > 0 {
		for len(line) > 0 && (line[0] == ' ' || line[0] == '\t') {
			line = line[1:]
		}
		if len(line) == 0 {
			break
		}
		i := 0
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		fields = append(fields, line[:i])
		line = line[i:]
	}
	return fields
}

// parseDecimal parses an optionally negative decimal integer without
// allocating (strconv.Atoi needs a string). At most 18 digits, so the
// result cannot overflow int64; a leading '+' is rejected — the wire
// grammar only ever carries plain digits.
func parseDecimal(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && b[0] == '-' {
		neg = true
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// validKey reports whether k is a legal key token: 1..MaxKeyLen bytes,
// none of which are spaces or control characters.
func validKey(k []byte) bool {
	if len(k) == 0 || len(k) > MaxKeyLen {
		return false
	}
	for _, b := range k {
		if b <= ' ' || b == 0x7f {
			return false
		}
	}
	return true
}

// ReadCommand reads and parses one request. Errors are either io errors
// (connection gone), ErrUnknownVerb, or *ClientError.
func ReadCommand(r *bufio.Reader) (Command, error) {
	var tc TextCodec
	return tc.ReadCommand(r)
}

// TextCodec is the memcached-style text protocol as a ServerCodec. The
// zero value is ready to use; it carries tokenizer scratch so parsing a
// command performs no slice allocation beyond the key string and SET
// payload.
type TextCodec struct {
	fields [][]byte
}

// Name reports the codec's protocol name.
func (tc *TextCodec) Name() string { return ProtocolText }

// ReadCommand reads and parses one request (see package ReadCommand).
func (tc *TextCodec) ReadCommand(r *bufio.Reader) (Command, error) {
	line, err := readLine(r)
	if err != nil {
		return Command{}, err
	}
	tc.fields = asciiFieldsInto(tc.fields[:0], line)
	fields := tc.fields
	if len(fields) == 0 {
		return Command{}, clientErr(false, "empty request")
	}
	args := fields[1:]
	// switch-on-conversion is allocation-free: the compiler compares the
	// byte slice against the case literals without materializing a string.
	switch string(fields[0]) {
	case "GET", "get":
		if len(args) != 1 {
			return Command{}, clientErr(false, "GET wants 1 argument, got %d", len(args))
		}
		if !validKey(args[0]) {
			return Command{}, clientErr(false, "bad key")
		}
		return Command{Verb: VerbGet, Key: string(args[0])}, nil

	case "SET", "set":
		if len(args) != 2 {
			return Command{}, clientErr(false, "SET wants <key> <bytes>, got %d arguments", len(args))
		}
		if !validKey(args[0]) {
			return Command{}, clientErr(false, "bad key")
		}
		// Copy the key out NOW: args[0] aliases the bufio buffer
		// (readLine uses ReadSlice), and reading the data block below may
		// refill that buffer, overwriting the key bytes with later stream
		// bytes — the key would pass validKey yet store as garbage.
		key := string(args[0])
		n64, ok := parseDecimal(args[1])
		if !ok || n64 < 0 {
			return Command{}, clientErr(false, "bad value length %q", args[1])
		}
		n := int(n64)
		if n > MaxValueLen {
			// The data block is on the wire; without reading it framing is
			// lost, and reading it would buffer an over-limit value. Fatal.
			return Command{}, clientErr(true, "value exceeds %d bytes", MaxValueLen)
		}
		val := make([]byte, n)
		if _, err := io.ReadFull(r, val); err != nil {
			return Command{}, clientErr(true, "short value data block")
		}
		// The data block carries its own CRLF terminator.
		switch crlf, err := r.Peek(2); {
		case err == nil && crlf[0] == '\r' && crlf[1] == '\n':
			r.Discard(2)
		case len(crlf) >= 1 && crlf[0] == '\n': // tolerate bare LF
			r.Discard(1)
		default:
			return Command{}, clientErr(true, "value data block not terminated by CRLF")
		}
		return Command{Verb: VerbSet, Key: key, Value: val}, nil

	case "DELETE", "delete":
		if len(args) != 1 {
			return Command{}, clientErr(false, "DELETE wants 1 argument, got %d", len(args))
		}
		if !validKey(args[0]) {
			return Command{}, clientErr(false, "bad key")
		}
		return Command{Verb: VerbDelete, Key: string(args[0])}, nil

	case "RANGE", "range":
		if len(args) != 2 {
			return Command{}, clientErr(false, "RANGE wants <start> <count>, got %d arguments", len(args))
		}
		if !validKey(args[0]) {
			return Command{}, clientErr(false, "bad start key")
		}
		n, ok := parseDecimal(args[1])
		if !ok || n < 1 || n > MaxRange {
			return Command{}, clientErr(false, "bad count %q (want 1..%d)", args[1], MaxRange)
		}
		return Command{Verb: VerbRange, Key: string(args[0]), Count: int(n)}, nil

	case "STATS", "stats":
		if len(args) != 0 {
			return Command{}, clientErr(false, "STATS wants no arguments")
		}
		return Command{Verb: VerbStats}, nil

	case "QUIT", "quit":
		return Command{Verb: VerbQuit}, nil

	default:
		return Command{}, ErrUnknownVerb
	}
}

// Complete reports whether buf — the reader's currently-buffered bytes —
// holds at least one whole command, i.e. whether ReadCommand is
// guaranteed to reach a verdict (a command or an error) without another
// socket read. The serving loop uses it to drain a pipelined burst
// without ever blocking mid-batch. It is conservative the cheap way:
// anything that makes ReadCommand fail before touching a data block
// (unknown verb, bad length, over-limit value) counts as complete,
// because the error path consumes only the already-buffered line.
func (tc *TextCodec) Complete(buf []byte) bool {
	i := bytes.IndexByte(buf, '\n')
	if i < 0 {
		return false
	}
	line := buf[:i]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	tc.fields = asciiFieldsInto(tc.fields[:0], line)
	f := tc.fields
	// Only a well-formed SET reads past its command line; everything
	// else resolves on the line alone. The length check must mirror
	// ReadCommand exactly, or a "complete" SET could still block.
	if len(f) == 3 && (string(f[0]) == "SET" || string(f[0]) == "set") {
		if n, ok := parseDecimal(f[2]); ok && n >= 0 && n <= MaxValueLen {
			return int64(len(buf)) >= int64(i+1)+n+2
		}
	}
	return true
}

// AppendCommand appends the canonical wire encoding of c to dst and
// returns the extended slice. This is THE single-command encoder: the
// client sends its output, and the durability layer
// (internal/persist) frames it as AOF and snapshot records — so
// a log record is byte-for-byte what the wire would carry, and replay is
// the same ReadCommand path the server already trusts.
func AppendCommand(dst []byte, c Command) ([]byte, error) {
	switch c.Verb {
	case VerbGet, VerbDelete:
		dst = append(dst, c.Verb.String()...)
		dst = append(dst, ' ')
		dst = append(dst, c.Key...)
		dst = append(dst, "\r\n"...)
	case VerbSet:
		dst = append(dst, "SET "...)
		dst = append(dst, c.Key...)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(len(c.Value)), 10)
		dst = append(dst, "\r\n"...)
		dst = append(dst, c.Value...)
		dst = append(dst, "\r\n"...)
	case VerbRange:
		dst = append(dst, "RANGE "...)
		dst = append(dst, c.Key...)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(c.Count), 10)
		dst = append(dst, "\r\n"...)
	case VerbStats:
		dst = append(dst, "STATS\r\n"...)
	case VerbQuit:
		dst = append(dst, "QUIT\r\n"...)
	default:
		return dst, fmt.Errorf("proto: invalid verb %d", int(c.Verb))
	}
	return dst, nil
}

// DecodeCommand parses one complete command encoding (the output of
// AppendCommand), requiring that it consumes the whole buffer. It is the
// decode half used by AOF/snapshot replay.
func DecodeCommand(payload []byte) (Command, error) {
	r := bufio.NewReader(bytes.NewReader(payload))
	c, err := ReadCommand(r)
	if err != nil {
		return Command{}, err
	}
	if _, err := r.Peek(1); err != io.EOF {
		return Command{}, errors.New("proto: trailing bytes after command")
	}
	return c, nil
}

// Reply lines.
const (
	ReplyStored   = "STORED"
	ReplyDeleted  = "DELETED"
	ReplyNotFound = "NOT_FOUND"
	ReplyEnd      = "END"
)

// ReplyError is an ERROR / CLIENT_ERROR / SERVER_ERROR reply surfaced on
// the client side.
type ReplyError struct {
	Kind string // "ERROR", "CLIENT_ERROR", or "SERVER_ERROR"
	Msg  string
}

func (e *ReplyError) Error() string {
	if e.Msg == "" {
		return "server replied " + e.Kind
	}
	return e.Kind + ": " + e.Msg
}

// ReadReplyLine reads one reply line, mapping error replies to
// *ReplyError. The returned fields are the line's space-separated tokens.
func ReadReplyLine(r *bufio.Reader) ([]string, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	fields := asciiFields(line)
	if len(fields) == 0 {
		return nil, errors.New("proto: empty reply line")
	}
	head := string(fields[0])
	switch head {
	case "ERROR", "CLIENT_ERROR", "SERVER_ERROR":
		msg := ""
		if rest := bytes.TrimSpace(line[len(head):]); len(rest) > 0 {
			msg = string(rest)
		}
		return nil, &ReplyError{Kind: head, Msg: msg}
	}
	out := make([]string, len(fields))
	for i, f := range fields {
		out[i] = string(f)
	}
	return out, nil
}

// ReadValueBlock finishes reading a VALUE block whose header line has
// already been parsed into key and size fields: it reads size bytes of
// data plus the CRLF terminator.
func ReadValueBlock(r *bufio.Reader, sizeField string) ([]byte, error) {
	n, err := strconv.Atoi(sizeField)
	if err != nil || n < 0 || n > MaxValueLen {
		return nil, fmt.Errorf("proto: bad VALUE size %q", sizeField)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	if crlf, err := r.Peek(2); err == nil && crlf[0] == '\r' && crlf[1] == '\n' {
		r.Discard(2)
	} else if len(crlf) >= 1 && crlf[0] == '\n' {
		r.Discard(1)
	} else {
		return nil, errors.New("proto: VALUE data not terminated by CRLF")
	}
	return data, nil
}
