// RESP2 wire protocol (the redis serialization protocol), the second
// codec valoisd speaks. Requests are arrays of bulk strings —
// "*2\r\n$3\r\nGET\r\n$1\r\nk\r\n" — or inline space-separated lines
// (redis-benchmark's PING_INLINE); replies use the five RESP2 types:
//
//	GET <key>        → $<n>\r\n<data>\r\n | $-1\r\n (miss)
//	SET <key> <val>  → +OK
//	DEL <key>        → :1 | :0          (DELETE accepted as an alias)
//	RANGE <start> <n>→ *<2n> of key, value bulk pairs
//	STATS            → *<2n> of name, value bulk pairs
//	PING             → +PONG
//	QUIT             → +OK, then the server closes
//
// Errors map onto RESP error replies carrying the text protocol's error
// kinds — "-CLIENT_ERROR <msg>", "-SERVER_ERROR <msg>", and "-ERR
// unknown command" — so both codecs surface the same *ReplyError kinds
// on the client side.
//
// Values are binary-safe (any bytes, length-prefixed both ways). Keys
// remain constrained to the text protocol's token grammar (validKey:
// 1..250 bytes, no spaces or control bytes) because the durability layer
// persists mutations in the canonical text encoding — one decode path
// for AOF replay regardless of which protocol carried the write. See
// DESIGN.md §11 for the argument.
package proto

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
)

// maxRESPArgs bounds a request array. The largest real command (SET) has
// 3 elements; anything larger is a framing attack or a lost stream, and
// is fatal rather than consumed.
const maxRESPArgs = 16

// maxRESPFrame bounds a whole request array: the largest legal one (a
// SET of a MaxKeyLen key and a MaxValueLen value) plus its headers and
// terminators. A request is framed whole before it is judged, so this is
// what keeps a hostile array of maxRESPArgs maximal bulks from being
// buffered; past it the array is fatal at the header that crosses it.
const maxRESPFrame = MaxValueLen + MaxKeyLen + 64

// RESPCodec is the RESP2 protocol as a ServerCodec. The zero value is
// ready; it carries the scanner's token scratch so request parsing
// allocates only the key string and SET payload, mirroring TextCodec.
type RESPCodec struct {
	fields [][]byte // the framed request's tokens: array bulks, or inline words
}

// Name reports the codec's protocol name.
func (rc *RESPCodec) Name() string { return ProtocolRESP }

// respVerb resolves a verb token case-insensitively without allocating.
// DEL is the redis spelling of DELETE; both are accepted.
func respVerb(tok []byte) (Verb, bool) {
	var up [8]byte
	if len(tok) == 0 || len(tok) > len(up) {
		return 0, false
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	switch string(up[:len(tok)]) {
	case "GET":
		return VerbGet, true
	case "SET":
		return VerbSet, true
	case "DEL", "DELETE":
		return VerbDelete, true
	case "RANGE":
		return VerbRange, true
	case "STATS":
		return VerbStats, true
	case "QUIT":
		return VerbQuit, true
	case "PING":
		return VerbPing, true
	}
	return 0, false
}

// verbArity is the exact array length each verb requires.
func verbArity(v Verb) int {
	switch v {
	case VerbGet, VerbDelete:
		return 2
	case VerbSet, VerbRange:
		return 3
	default: // STATS, QUIT, PING
		return 1
	}
}

// discardCRLF consumes a bulk terminator, tolerating a bare LF the same
// way the text protocol's data blocks do.
func discardCRLF(r *bufio.Reader) error {
	switch crlf, err := r.Peek(2); {
	case err == nil && crlf[0] == '\r' && crlf[1] == '\n':
		r.Discard(2)
	case len(crlf) >= 1 && crlf[0] == '\n':
		r.Discard(1)
	default:
		return clientErr(true, "bulk string not terminated by CRLF")
	}
	return nil
}

// ReadCommand reads and parses one RESP request (array or inline).
// Errors are io errors, ErrUnknownVerb, or *ClientError; unlike the text
// protocol most malformations are recoverable, because bulk strings are
// length-prefixed and the whole array is framed before its content is
// judged — only a broken array/bulk header, a missing terminator or an
// array past maxRESPFrame loses framing and turns fatal.
func (rc *RESPCodec) ReadCommand(r *bufio.Reader) (Command, error) {
	return readCommand(r, rc)
}

// Complete reports whether buf holds one whole RESP request or a framing
// error (see TextCodec.Complete for the contract).
func (rc *RESPCodec) Complete(buf []byte) bool {
	n, _, err := rc.scan(buf)
	return n > 0 || err != nil
}

// scan frames the first request of buf (see framer): an inline request
// is its line, an array is its header line and the declared bulks. The
// tokens are the line's words or the bulks' bodies — build reads both
// forms alike.
func (rc *RESPCodec) scan(buf []byte) (n, need int, err error) {
	line, pos, err := scanLine(buf)
	if pos == 0 {
		return 0, len(buf) + 1, err
	}
	if len(line) == 0 || line[0] != '*' {
		rc.fields = asciiFieldsInto(rc.fields[:0], line)
		return pos, 0, nil
	}
	count, ok := parseDecimal(line[1:])
	if !ok || count < 1 || count > maxRESPArgs {
		return 0, 0, clientErr(true, "bad array length %q", line[1:])
	}
	rc.fields = rc.fields[:0]
	for ; count > 0; count-- {
		hdr, hlen, err := scanLine(buf[pos:])
		if hlen == 0 {
			return 0, len(buf) + 1, err
		}
		if len(hdr) < 2 || hdr[0] != '$' {
			return 0, 0, clientErr(true, "expected bulk string header, got %q", hdr)
		}
		size, ok := parseDecimal(hdr[1:])
		if !ok || size < 0 || size > MaxValueLen {
			return 0, 0, clientErr(true, "bad bulk length %q", hdr[1:])
		}
		body := pos + hlen
		if body+int(size) > maxRESPFrame {
			return 0, 0, clientErr(true, "request exceeds %d bytes", maxRESPFrame)
		}
		if pos, need, err = scanBlock(buf, body, int(size)); pos == 0 {
			return 0, need, err
		}
		rc.fields = append(rc.fields, buf[body:body+int(size)])
	}
	return pos, 0, nil
}

// build turns the tokens scan recorded into a Command and drops them
// (see TextCodec.build).
func (rc *RESPCodec) build() (Command, error) {
	cmd, err := respCommand(rc.fields)
	clear(rc.fields)
	return cmd, err
}

// respCommand judges one request's tokens, copying out what the Command
// keeps.
func respCommand(f [][]byte) (Command, error) {
	if len(f) == 0 {
		return Command{}, clientErr(false, "empty request")
	}
	verb, known := respVerb(f[0])
	if !known {
		return Command{}, ErrUnknownVerb
	}
	if len(f) != verbArity(verb) {
		return Command{}, clientErr(false, "wrong number of arguments for %s", verb)
	}
	cmd := Command{Verb: verb}
	if len(f) == 1 { // STATS, QUIT, PING
		return cmd, nil
	}
	if !validKey(f[1]) {
		return Command{}, clientErr(false, "bad key")
	}
	cmd.Key = string(f[1])
	switch verb {
	case VerbSet:
		cmd.Value = append([]byte{}, f[2]...)
	case VerbRange:
		n, ok := parseDecimal(f[2])
		if !ok || n < 1 || n > MaxRange {
			return Command{}, clientErr(false, "bad count %q (want 1..%d)", f[2], MaxRange)
		}
		cmd.Count = int(n)
	}
	return cmd, nil
}

// RESP reply encoders (append-style; used by RESPCodec and tests).

// AppendRESPSimple appends a "+<s>\r\n" simple string.
func AppendRESPSimple(dst []byte, s string) []byte {
	dst = append(dst, '+')
	dst = appendSanitized(dst, s)
	return append(dst, '\r', '\n')
}

// AppendRESPError appends a "-<kind> <msg>\r\n" error reply.
func AppendRESPError(dst []byte, kind, msg string) []byte {
	dst = append(dst, '-')
	dst = append(dst, kind...)
	if msg != "" {
		dst = append(dst, ' ')
		dst = appendSanitized(dst, msg)
	}
	return append(dst, '\r', '\n')
}

// AppendRESPInt appends a ":<v>\r\n" integer reply.
func AppendRESPInt(dst []byte, v int64) []byte {
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, v, 10)
	return append(dst, '\r', '\n')
}

// AppendRESPBulk appends a "$<n>\r\n<data>\r\n" bulk string.
func AppendRESPBulk(dst []byte, b []byte) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(b)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, b...)
	return append(dst, '\r', '\n')
}

// AppendRESPBulkString is AppendRESPBulk for string payloads.
func AppendRESPBulkString(dst []byte, s string) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, s...)
	return append(dst, '\r', '\n')
}

// AppendRESPNull appends the "$-1\r\n" null bulk (a GET miss).
func AppendRESPNull(dst []byte) []byte {
	return append(dst, "$-1\r\n"...)
}

// AppendRESPArrayHeader appends a "*<n>\r\n" array header.
func AppendRESPArrayHeader(dst []byte, n int) []byte {
	dst = append(dst, '*')
	dst = strconv.AppendInt(dst, int64(n), 10)
	return append(dst, '\r', '\n')
}

func (rc *RESPCodec) AppendGetReply(dst []byte, key string, value []byte, found bool) []byte {
	if !found {
		return AppendRESPNull(dst)
	}
	return AppendRESPBulk(dst, value)
}

func (rc *RESPCodec) AppendSetReply(dst []byte) []byte {
	return append(dst, "+OK\r\n"...)
}

func (rc *RESPCodec) AppendDeleteReply(dst []byte, deleted bool) []byte {
	if deleted {
		return append(dst, ":1\r\n"...)
	}
	return append(dst, ":0\r\n"...)
}

func (rc *RESPCodec) AppendRangeHeader(dst []byte, n int) []byte {
	return AppendRESPArrayHeader(dst, 2*n)
}

func (rc *RESPCodec) AppendRangeItem(dst []byte, key string, value []byte) []byte {
	dst = AppendRESPBulkString(dst, key)
	return AppendRESPBulk(dst, value)
}

func (rc *RESPCodec) AppendRangeTrailer(dst []byte) []byte { return dst }

func (rc *RESPCodec) AppendStatsHeader(dst []byte, n int) []byte {
	return AppendRESPArrayHeader(dst, 2*n)
}

func (rc *RESPCodec) AppendStatItem(dst []byte, name, value string) []byte {
	dst = AppendRESPBulkString(dst, name)
	return AppendRESPBulkString(dst, value)
}

func (rc *RESPCodec) AppendStatsTrailer(dst []byte) []byte { return dst }

func (rc *RESPCodec) AppendPong(dst []byte) []byte {
	return append(dst, "+PONG\r\n"...)
}

// AppendQuit acknowledges QUIT before the server closes, matching redis.
func (rc *RESPCodec) AppendQuit(dst []byte) []byte {
	return append(dst, "+OK\r\n"...)
}

func (rc *RESPCodec) AppendClientError(dst []byte, msg string) []byte {
	return AppendRESPError(dst, "CLIENT_ERROR", msg)
}

func (rc *RESPCodec) AppendServerError(dst []byte, msg string) []byte {
	return AppendRESPError(dst, "SERVER_ERROR", msg)
}

func (rc *RESPCodec) AppendUnknownVerb(dst []byte) []byte {
	return AppendRESPError(dst, "ERR", "unknown command")
}

// AppendRESPCommand appends the RESP array encoding of c — the client
// side of RESPCodec.ReadCommand. DELETE is spelled DEL on the wire.
func AppendRESPCommand(dst []byte, c Command) ([]byte, error) {
	if err := checkKey(c); err != nil {
		return dst, err
	}
	switch c.Verb {
	case VerbGet:
		dst = AppendRESPArrayHeader(dst, 2)
		dst = AppendRESPBulkString(dst, "GET")
		dst = AppendRESPBulkString(dst, c.Key)
	case VerbSet:
		dst = AppendRESPArrayHeader(dst, 3)
		dst = AppendRESPBulkString(dst, "SET")
		dst = AppendRESPBulkString(dst, c.Key)
		dst = AppendRESPBulk(dst, c.Value)
	case VerbDelete:
		dst = AppendRESPArrayHeader(dst, 2)
		dst = AppendRESPBulkString(dst, "DEL")
		dst = AppendRESPBulkString(dst, c.Key)
	case VerbRange:
		dst = AppendRESPArrayHeader(dst, 3)
		dst = AppendRESPBulkString(dst, "RANGE")
		dst = AppendRESPBulkString(dst, c.Key)
		dst = append(dst, '$')
		n := strconv.AppendInt(nil, int64(c.Count), 10)
		dst = strconv.AppendInt(dst, int64(len(n)), 10)
		dst = append(dst, '\r', '\n')
		dst = append(dst, n...)
		dst = append(dst, '\r', '\n')
	case VerbStats:
		dst = AppendRESPArrayHeader(dst, 1)
		dst = AppendRESPBulkString(dst, "STATS")
	case VerbQuit:
		dst = AppendRESPArrayHeader(dst, 1)
		dst = AppendRESPBulkString(dst, "QUIT")
	case VerbPing:
		dst = AppendRESPArrayHeader(dst, 1)
		dst = AppendRESPBulkString(dst, "PING")
	default:
		return dst, fmt.Errorf("proto: invalid verb %d", int(c.Verb))
	}
	return dst, nil
}

// RESP reply reading (the client side).

// ReadRESPLine reads one RESP reply header line, returning its type byte
// and the rest of the line. Error replies ('-') are mapped to
// *ReplyError with the same kinds the text protocol surfaces; "ERR" (the
// redis-native kind this server uses for unknown commands) maps to
// "ERROR". The returned payload aliases the reader's buffer and must be
// consumed before the next read.
func ReadRESPLine(r *bufio.Reader) (kind byte, rest []byte, err error) {
	line, err := readLine(r)
	if err != nil {
		return 0, nil, err
	}
	if len(line) == 0 {
		return 0, nil, clientErr(true, "empty RESP reply line")
	}
	kind, rest = line[0], line[1:]
	if kind != '-' {
		return kind, rest, nil
	}
	re := &ReplyError{Kind: "ERROR"}
	f := asciiFields(rest)
	if len(f) > 0 {
		switch string(f[0]) {
		case "CLIENT_ERROR", "SERVER_ERROR", "ERROR":
			re.Kind = string(f[0])
			re.Msg = string(bytes.TrimSpace(rest[len(f[0]):]))
		case "ERR":
			re.Msg = string(bytes.TrimSpace(rest[3:]))
		default:
			re.Msg = string(bytes.TrimSpace(rest))
		}
	}
	return 0, nil, re
}

// ParseRESPInt parses the integer payload of a ':', '$', or '*' header.
func ParseRESPInt(rest []byte) (int64, error) {
	n, ok := parseDecimal(rest)
	if !ok {
		return 0, fmt.Errorf("proto: bad RESP integer %q", rest)
	}
	return n, nil
}

// ReadRESPBulkBody reads the n data bytes of a bulk string plus its
// terminator, after the "$<n>" header has been read.
func ReadRESPBulkBody(r *bufio.Reader, n int) ([]byte, error) {
	if n < 0 || n > MaxValueLen {
		return nil, fmt.Errorf("proto: bad RESP bulk length %d", n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	if err := discardCRLF(r); err != nil {
		return nil, err
	}
	return data, nil
}
