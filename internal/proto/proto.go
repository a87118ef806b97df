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

// scanLine finds the first line of buf: at most MaxLineLen bytes plus a
// CRLF (or bare LF) terminator. It returns the line without its
// terminator and the offset just past it; end == 0 means the line is not
// all there yet. An over-long line is a fatal client error: the reader
// cannot tell where the next request starts.
func scanLine(buf []byte) (line []byte, end int, err error) {
	i := bytes.IndexByte(buf[:min(len(buf), MaxLineLen+2)], '\n')
	if i < 0 {
		if len(buf) >= MaxLineLen+2 {
			return nil, 0, clientErr(true, "request line exceeds %d bytes", MaxLineLen)
		}
		return nil, 0, nil
	}
	line = buf[:i]
	if i > 0 && line[i-1] == '\r' {
		line = line[:i-1]
	}
	return line, i + 1, nil
}

// scanBlock frames a length-prefixed data block (a SET value, a RESP
// bulk) of size bytes at buf[at:] with its CRLF (or tolerated bare LF)
// terminator: n is the offset just past the terminator, or 0 with need a
// lower bound on it when buf ends first. A missing terminator is fatal —
// the declared length was wrong, so the next request's start is unknown.
func scanBlock(buf []byte, at, size int) (n, need int, err error) {
	end := at + size
	switch {
	case len(buf) <= end:
		return 0, end + 1, nil
	case buf[end] == '\n':
		return end + 1, 0, nil
	case buf[end] != '\r':
	case len(buf) == end+1:
		return 0, end + 2, nil
	case buf[end+1] == '\n':
		return end + 2, 0, nil
	}
	return 0, 0, clientErr(true, "data block not terminated by CRLF")
}

// framer is what a codec supplies to readCommand: scan frames the first
// request of buf from its bytes alone — n > 0 is a whole request of n
// bytes, n == 0 means more bytes are needed and the request is at least
// need long, err means framing is lost — recording the request's tokens
// in the codec's scratch; build turns the tokens of the last framed
// request into a Command. Where a request ends is decided in scan and
// nowhere else, before its content is judged, so a request build rejects
// has already been stepped over and the connection stays in sync.
type framer interface {
	scan(buf []byte) (n, need int, err error)
	build() (Command, error)
}

// readCommand blocks until f.scan frames one request from r, builds it
// and consumes it. The request is framed in place in the reader's buffer
// whenever it fits there; a larger one (a big SET) is assembled in
// storage of its own, which scan bounds by refusing over-limit lengths.
func readCommand(r *bufio.Reader, f framer) (Command, error) {
	need := 1
	for need <= r.Size() {
		if _, err := r.Peek(need); err != nil {
			return Command{}, readErr(err, r.Buffered() > 0)
		}
		buf, _ := r.Peek(r.Buffered())
		n, more, err := f.scan(buf)
		if err != nil {
			return Command{}, err
		}
		if n > 0 {
			cmd, err := f.build()
			r.Discard(n)
			return cmd, err
		}
		need = more
	}
	// Everything buffered belongs to this request (scan found no end in
	// it) and need never overshoots the request's end, so own fills up
	// to exactly one request and the reader is left at the next.
	var own []byte
	for {
		have := len(own)
		own = append(own, make([]byte, need-have)...)
		if _, err := io.ReadFull(r, own[have:]); err != nil {
			return Command{}, readErr(err, true)
		}
		n, more, err := f.scan(own)
		if err != nil {
			return Command{}, err
		}
		if n > 0 {
			return f.build()
		}
		need = more
	}
}

// readErr classifies a failed read: end of stream before a request's
// first byte is a clean close, inside a request it is a fatal client
// error, and anything else (a deadline, a reset) is the transport's.
func readErr(err error, started bool) error {
	if err != io.EOF && err != io.ErrUnexpectedEOF {
		return err
	}
	if !started {
		return io.EOF
	}
	return clientErr(true, "truncated request")
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
func validKey[T []byte | string](k T) bool {
	if len(k) == 0 || len(k) > MaxKeyLen {
		return false
	}
	for i := 0; i < len(k); i++ {
		if b := k[i]; b <= ' ' || b == 0x7f {
			return false
		}
	}
	return true
}

// checkKey refuses a command whose encoding would carry a key the
// grammar forbids: on the text wire such a key tokenizes apart or
// smuggles a second command past a CRLF, and either wire's server
// rejects it anyway.
func checkKey(c Command) error {
	switch c.Verb {
	case VerbGet, VerbSet, VerbDelete, VerbRange:
		if !validKey(c.Key) {
			return fmt.Errorf("proto: invalid key %q", c.Key)
		}
	}
	return nil
}

// ReadCommand reads and parses one request. Errors are either io errors
// (connection gone), ErrUnknownVerb, or *ClientError.
func ReadCommand(r *bufio.Reader) (Command, error) {
	var tc TextCodec
	return tc.ReadCommand(r)
}

// TextCodec is the memcached-style text protocol as a ServerCodec. The
// zero value is ready to use; it carries the scanner's token scratch so
// parsing a command performs no slice allocation beyond the key string
// and SET payload.
type TextCodec struct {
	fields [][]byte // tokens of the framed request's line
	value  []byte   // its data block: non-nil (even when empty) exactly for a well-formed SET
}

// Name reports the codec's protocol name.
func (tc *TextCodec) Name() string { return ProtocolText }

// ReadCommand reads and parses one request (see package ReadCommand).
func (tc *TextCodec) ReadCommand(r *bufio.Reader) (Command, error) {
	return readCommand(r, tc)
}

// Complete reports whether buf — the reader's currently-buffered bytes —
// holds at least one whole request or a framing error, i.e. whether
// ReadCommand reaches a verdict without another socket read. The serving
// loop uses it to drain a pipelined burst without blocking mid-batch.
func (tc *TextCodec) Complete(buf []byte) bool {
	n, _, err := tc.scan(buf)
	return n > 0 || err != nil
}

// scan frames the first request of buf (see framer). Every request is
// its line, except a SET whose line is well-formed — two arguments, a
// legal key, a plain length — which extends over the data block the
// length declares; any other SET line draws its CLIENT_ERROR from build
// with the next request starting on the next line.
func (tc *TextCodec) scan(buf []byte) (n, need int, err error) {
	line, end, err := scanLine(buf)
	if end == 0 {
		return 0, len(buf) + 1, err
	}
	tc.fields = asciiFieldsInto(tc.fields[:0], line)
	tc.value = nil
	f := tc.fields
	if len(f) != 3 || (string(f[0]) != "SET" && string(f[0]) != "set") || !validKey(f[1]) {
		return end, 0, nil
	}
	size, ok := parseDecimal(f[2])
	if !ok || size < 0 {
		return end, 0, nil
	}
	if size > MaxValueLen {
		// The data block is on the wire behind a length that will not be
		// buffered, so the next request's start is out of reach. Fatal.
		return 0, 0, clientErr(true, "value exceeds %d bytes", MaxValueLen)
	}
	n, need, err = scanBlock(buf, end, int(size))
	if n > 0 {
		tc.value = buf[end : end+int(size)]
	}
	return n, need, err
}

// build turns the tokens scan recorded into a Command and drops them:
// they alias the scanned buffer, which the codec must not keep reachable
// once the request is consumed.
func (tc *TextCodec) build() (Command, error) {
	cmd, err := textCommand(tc.fields, tc.value)
	clear(tc.fields)
	tc.value = nil
	return cmd, err
}

// textCommand judges one request's tokens — its line's fields, and the
// data block scan framed if the line is a well-formed SET — copying out
// what the Command keeps.
func textCommand(fields [][]byte, value []byte) (Command, error) {
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
		switch {
		case value != nil: // scan framed a data block, so the line is well-formed
			return Command{Verb: VerbSet, Key: string(args[0]), Value: append([]byte{}, value...)}, nil
		case len(args) != 2:
			return Command{}, clientErr(false, "SET wants <key> <bytes>, got %d arguments", len(args))
		case !validKey(args[0]):
			return Command{}, clientErr(false, "bad key")
		default:
			return Command{}, clientErr(false, "bad value length %q", args[1])
		}

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

// AppendCommand appends the canonical wire encoding of c to dst and
// returns the extended slice. This is THE single-command encoder: the
// client sends its output, and the durability layer
// (internal/persist) frames it as AOF and snapshot records — so
// a log record is byte-for-byte what the wire would carry, and replay is
// the same ReadCommand path the server already trusts.
func AppendCommand(dst []byte, c Command) ([]byte, error) {
	if err := checkKey(c); err != nil {
		return dst, err
	}
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
	var tc TextCodec
	n, _, err := tc.scan(payload)
	switch {
	case err != nil:
		return Command{}, err
	case n == 0:
		return Command{}, errors.New("proto: truncated command")
	case n != len(payload):
		return Command{}, errors.New("proto: trailing bytes after command")
	}
	return tc.build()
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
