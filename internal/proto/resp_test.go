package proto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

func respReader(s string) *bufio.Reader { return bufio.NewReader(strings.NewReader(s)) }

func TestRESPReadCommandWellFormed(t *testing.T) {
	tests := []struct {
		in   string
		want Command
	}{
		{"*2\r\n$3\r\nGET\r\n$3\r\nfoo\r\n", Command{Verb: VerbGet, Key: "foo"}},
		{"*2\r\n$3\r\nget\r\n$3\r\nfoo\r\n", Command{Verb: VerbGet, Key: "foo"}},
		{"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n", Command{Verb: VerbSet, Key: "k", Value: []byte("hello")}},
		{"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$0\r\n\r\n", Command{Verb: VerbSet, Key: "k", Value: []byte{}}},
		// Binary-safe value: CRLF and NUL inside the payload.
		{"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$6\r\na\r\nb\x00c\r\n", Command{Verb: VerbSet, Key: "k", Value: []byte("a\r\nb\x00c")}},
		{"*2\r\n$3\r\nDEL\r\n$1\r\nk\r\n", Command{Verb: VerbDelete, Key: "k"}},
		{"*2\r\n$6\r\nDELETE\r\n$1\r\nk\r\n", Command{Verb: VerbDelete, Key: "k"}},
		{"*3\r\n$5\r\nRANGE\r\n$1\r\na\r\n$2\r\n10\r\n", Command{Verb: VerbRange, Key: "a", Count: 10}},
		{"*1\r\n$5\r\nSTATS\r\n", Command{Verb: VerbStats}},
		{"*1\r\n$4\r\nQUIT\r\n", Command{Verb: VerbQuit}},
		{"*1\r\n$4\r\nPING\r\n", Command{Verb: VerbPing}},
		// Inline commands (redis-benchmark PING_INLINE and hand-typed).
		{"PING\r\n", Command{Verb: VerbPing}},
		{"GET foo\r\n", Command{Verb: VerbGet, Key: "foo"}},
		{"SET k vvv\r\n", Command{Verb: VerbSet, Key: "k", Value: []byte("vvv")}},
		{"DEL k\n", Command{Verb: VerbDelete, Key: "k"}},
		// Bare-LF bulk terminators are tolerated like text data blocks.
		{"*2\r\n$3\r\nGET\n$3\r\nfoo\n", Command{Verb: VerbGet, Key: "foo"}},
	}
	var rc RESPCodec
	for _, tt := range tests {
		got, err := rc.ReadCommand(respReader(tt.in))
		if err != nil {
			t.Errorf("ReadCommand(%q) error: %v", tt.in, err)
			continue
		}
		if got.Verb != tt.want.Verb || got.Key != tt.want.Key ||
			got.Count != tt.want.Count || !bytes.Equal(got.Value, tt.want.Value) {
			t.Errorf("ReadCommand(%q) = %+v, want %+v", tt.in, got, tt.want)
		}
	}
}

var longKey = strings.Repeat("k", MaxKeyLen+1)

// malformedRESP is TestRESPReadCommandMalformed's table;
// TestCompleteScanners checks the pipeline scanner against the same rows.
var malformedRESP = []struct {
	in    string
	fatal bool
}{
	{"*0\r\n", true},                                     // empty array
	{"*-1\r\n", true},                                    // negative array length
	{"*999\r\n", true},                                   // array length over maxRESPArgs
	{"*notanum\r\n", true},                               // unparsable array length
	{"*2\r\nGET\r\n$1\r\nk\r\n", true},                   // element without bulk header
	{"*2\r\n$3\r\nGET\r\n$-2\r\n", true},                 // negative bulk length
	{"*2\r\n$3\r\nGET\r\n$1\r\nkX", true},                // missing bulk terminator
	{"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1048577\r\n", true}, // value over MaxValueLen
	{"*1\r\n$3\r\nGET\r\n", false},                       // wrong arity
	{"*3\r\n$3\r\nGET\r\n$1\r\na\r\n$1\r\nb\r\n", false}, // wrong arity, args drained
	{"*2\r\n$3\r\nGET\r\n$0\r\n\r\n", false},             // empty key
	{"*2\r\n$3\r\nGET\r\n$" + lenStr(longKey) + "\r\n" + longKey + "\r\n", false}, // oversized key
	{"*2\r\n$3\r\nGET\r\n$3\r\na b\r\n", false},                                   // space in key
	{"*3\r\n$5\r\nRANGE\r\n$1\r\na\r\n$2\r\n-3\r\n", false},                       // bad count
	{"\r\n", false},           // empty inline line
	{"GET\r\n", false},        // inline wrong arity
	{"GET a b c\r\n", false},  // inline wrong arity
	{"RANGE a zz\r\n", false}, // inline bad count
	{strings.Repeat("x", MaxLineLen+10) + "\r\n", true}, // over-long inline line
	// An array is framed whole before it is judged, so one whose declared
	// bulks pass the largest legal request is refused at the header that
	// crosses the bound, before that bulk is buffered: each bulk here is
	// legal alone, and the verdict comes without the last one's body.
	{"*3\r\n$3\r\nSET\r\n$" + lenStr(maxBulk) + "\r\n" + maxBulk + "\r\n$400\r\n", true},
}

var maxBulk = strings.Repeat("v", MaxValueLen)

func TestRESPReadCommandMalformed(t *testing.T) {
	for _, tt := range malformedRESP {
		var rc RESPCodec
		_, err := rc.ReadCommand(respReader(tt.in))
		var ce *ClientError
		if !errors.As(err, &ce) {
			t.Errorf("ReadCommand(%.40q) error = %v, want *ClientError", tt.in, err)
			continue
		}
		if ce.Fatal != tt.fatal {
			t.Errorf("ReadCommand(%.40q) fatal = %v, want %v (%s)", tt.in, ce.Fatal, tt.fatal, ce.Msg)
		}
	}
}

func lenStr(s string) string { return strconv.Itoa(len(s)) }

// TestRESPRecoverableErrorPreservesFraming: after a non-fatal error
// mid-array (bad key with a value still on the wire), the next command
// on the same stream must parse cleanly — the codec drained the
// remainder of the broken request.
func TestRESPRecoverableErrorPreservesFraming(t *testing.T) {
	stream := "*3\r\n$3\r\nSET\r\n$0\r\n\r\n$5\r\nhello\r\n" + // bad (empty) key, value trails
		"*2\r\n$3\r\nGET\r\n$4\r\ngood\r\n"
	var rc RESPCodec
	r := respReader(stream)
	_, err := rc.ReadCommand(r)
	var ce *ClientError
	if !errors.As(err, &ce) || ce.Fatal {
		t.Fatalf("first command: error = %v, want non-fatal *ClientError", err)
	}
	cmd, err := rc.ReadCommand(r)
	if err != nil || cmd.Verb != VerbGet || cmd.Key != "good" {
		t.Fatalf("second command after recoverable error = %+v, %v", cmd, err)
	}
	// Unknown verbs drain their whole array too.
	stream = "*2\r\n$4\r\nFROB\r\n$5\r\nxxxxx\r\n*1\r\n$4\r\nPING\r\n"
	r = respReader(stream)
	if _, err := rc.ReadCommand(r); !errors.Is(err, ErrUnknownVerb) {
		t.Fatalf("unknown verb: error = %v, want ErrUnknownVerb", err)
	}
	if cmd, err := rc.ReadCommand(r); err != nil || cmd.Verb != VerbPing {
		t.Fatalf("command after unknown verb = %+v, %v", cmd, err)
	}
}

func TestRESPUnknownVerb(t *testing.T) {
	var rc RESPCodec
	if _, err := rc.ReadCommand(respReader("*1\r\n$4\r\nFROB\r\n")); !errors.Is(err, ErrUnknownVerb) {
		t.Fatalf("array: error = %v, want ErrUnknownVerb", err)
	}
	if _, err := rc.ReadCommand(respReader("FROB x\r\n")); !errors.Is(err, ErrUnknownVerb) {
		t.Fatalf("inline: error = %v, want ErrUnknownVerb", err)
	}
}

func TestRESPReadCommandEOF(t *testing.T) {
	var rc RESPCodec
	if _, err := rc.ReadCommand(respReader("")); !errors.Is(err, io.EOF) {
		t.Fatalf("error = %v, want io.EOF", err)
	}
}

// TestRESPCommandRoundTripTable: AppendRESPCommand → ReadCommand is the
// identity and re-encoding is byte-stable, for every client-emittable
// verb including a binary value.
func TestRESPCommandRoundTripTable(t *testing.T) {
	cmds := []Command{
		{Verb: VerbGet, Key: "alpha"},
		{Verb: VerbSet, Key: "beta", Value: []byte("bytes\r\nwith\x00binary")},
		{Verb: VerbSet, Key: "empty", Value: nil},
		{Verb: VerbDelete, Key: "gamma"},
		{Verb: VerbRange, Key: "delta", Count: 99},
		{Verb: VerbStats},
		{Verb: VerbQuit},
		{Verb: VerbPing},
	}
	var rc RESPCodec
	for _, c := range cmds {
		enc, err := AppendRESPCommand(nil, c)
		if err != nil {
			t.Fatalf("AppendRESPCommand(%v): %v", c.Verb, err)
		}
		got, err := rc.ReadCommand(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil {
			t.Fatalf("ReadCommand of our own encoding %q: %v", enc, err)
		}
		if got.Verb != c.Verb || got.Key != c.Key || got.Count != c.Count || !bytes.Equal(got.Value, c.Value) {
			t.Fatalf("round trip %v: got %+v, want %+v", c.Verb, got, c)
		}
		again, err := AppendRESPCommand(nil, got)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding %v differs: %q vs %q (%v)", c.Verb, enc, again, err)
		}
	}
}

// TestRESPReplyEncoders pins the exact reply bytes and checks the client
// readers parse them back.
func TestRESPReplyEncoders(t *testing.T) {
	var rc RESPCodec
	for _, tt := range []struct {
		got  []byte
		want string
	}{
		{rc.AppendGetReply(nil, "k", []byte("hello"), true), "$5\r\nhello\r\n"},
		{rc.AppendGetReply(nil, "k", nil, false), "$-1\r\n"},
		{rc.AppendSetReply(nil), "+OK\r\n"},
		{rc.AppendDeleteReply(nil, true), ":1\r\n"},
		{rc.AppendDeleteReply(nil, false), ":0\r\n"},
		{rc.AppendPong(nil), "+PONG\r\n"},
		{rc.AppendQuit(nil), "+OK\r\n"},
		{rc.AppendUnknownVerb(nil), "-ERR unknown command\r\n"},
		{rc.AppendClientError(nil, "bad\r\nkey"), "-CLIENT_ERROR bad  key\r\n"},
		{rc.AppendServerError(nil, "boom"), "-SERVER_ERROR boom\r\n"},
		{rc.AppendRangeHeader(nil, 2), "*4\r\n"},
		{rc.AppendStatItem(nil, "ops", "12"), "$3\r\nops\r\n$2\r\n12\r\n"},
	} {
		if string(tt.got) != tt.want {
			t.Errorf("encoder produced %q, want %q", tt.got, tt.want)
		}
	}

	// Client-side error mapping: the three server error shapes become the
	// same *ReplyError kinds the text protocol produces.
	for _, tt := range []struct {
		wire string
		kind string
		msg  string
	}{
		{"-CLIENT_ERROR bad key\r\n", "CLIENT_ERROR", "bad key"},
		{"-SERVER_ERROR too many connections\r\n", "SERVER_ERROR", "too many connections"},
		{"-ERR unknown command\r\n", "ERROR", "unknown command"},
	} {
		_, _, err := ReadRESPLine(respReader(tt.wire))
		var re *ReplyError
		if !errors.As(err, &re) || re.Kind != tt.kind || re.Msg != tt.msg {
			t.Errorf("ReadRESPLine(%q) = %v, want kind=%s msg=%q", tt.wire, err, tt.kind, tt.msg)
		}
	}

	// Bulk reply read-back.
	kind, rest, err := ReadRESPLine(respReader("$5\r\nworld\r\n"))
	if err != nil || kind != '$' {
		t.Fatalf("bulk header = %c, %v", kind, err)
	}
	n, err := ParseRESPInt(rest)
	if err != nil || n != 5 {
		t.Fatalf("bulk length = %d, %v", n, err)
	}
}

// TestCompleteScanners drives both codecs' pipeline scanners over
// partial and whole buffers: Complete must be false for any strict
// prefix of a well-formed command (so the batch drain never blocks) and
// true once the whole command — or a decidable error — is buffered.
func TestCompleteScanners(t *testing.T) {
	wholeText := []string{
		"GET foo\r\n",
		"SET k 5\r\nhello\r\n",
		"DELETE k\r\n",
		"RANGE a 10\r\n",
		"STATS\r\n",
		"FROB x\r\n",        // unknown verb: decidable from the line
		"SET k zz\r\n",      // bad length: decidable from the line
		"SET k 1048577\r\n", // over-limit: fatal from the line
		// Bad key: ReadCommand answers from the line and the next request
		// starts on the next one, so no data block is waited for.
		"SET " + longKey + " 5\r\n",
	}
	var tc TextCodec
	for _, s := range wholeText {
		if !tc.Complete([]byte(s)) {
			t.Errorf("text Complete(%q) = false, want true", s)
		}
	}
	// Prefixes of commands that read past the line must be incomplete.
	for _, s := range []string{"GET fo", "SET k 5\r\nhel", "SET k 5\r\nhello", "SET k 5\r\nhello\r"} {
		if tc.Complete([]byte(s)) {
			t.Errorf("text Complete(%q) = true, want false", s)
		}
	}

	wholeRESP := []string{
		"*2\r\n$3\r\nGET\r\n$3\r\nfoo\r\n",
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n",
		"*1\r\n$4\r\nPING\r\n",
		"PING\r\n",                   // inline
		"*999\r\n",                   // bad array length: fatal from the header
		"*2\r\n$3\r\nGET\r\n$zz\r\n", // bad bulk length: fatal at that header
	}
	var rcodec RESPCodec
	for _, s := range wholeRESP {
		if !rcodec.Complete([]byte(s)) {
			t.Errorf("resp Complete(%q) = false, want true", s)
		}
	}
	full := "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n"
	for i := 1; i < len(full); i++ {
		if rcodec.Complete([]byte(full[:i])) {
			t.Errorf("resp Complete(%q) = true, want false", full[:i])
		}
	}
	if rcodec.Complete(nil) {
		t.Error("resp Complete(nil) = true")
	}

	// Complete ⇔ ReadCommand without blocking, on every input above and
	// every row of the malformed-input tables: behind the input the reader
	// stalls (as a socket whose client sent nothing more would), and
	// ReadCommand must reach its verdict before the stall exactly when
	// Complete said the input holds one.
	for _, s := range malformedText {
		wholeText = append(wholeText, s.in)
	}
	for _, s := range malformedRESP {
		wholeRESP = append(wholeRESP, s.in)
	}
	errStall := errors.New("read would block")
	for _, side := range []struct {
		codec  ServerCodec
		inputs []string
	}{{&tc, wholeText}, {&rcodec, wholeRESP}} {
		for _, s := range side.inputs {
			for _, in := range []string{s, s[:len(s)-1], s[:len(s)/2]} {
				r := bufio.NewReader(io.MultiReader(strings.NewReader(in), iotest.ErrReader(errStall)))
				_, err := side.codec.ReadCommand(r)
				if stalled, complete := err == errStall, side.codec.Complete([]byte(in)); stalled == complete {
					t.Errorf("%s Complete(%.40q) = %v but ReadCommand returned %v", side.codec.Name(), in, complete, err)
				}
			}
		}
	}
}

// TestReadCommandOutgrowsReader: a request larger than the reader's
// buffer is assembled in storage of the codec's own, however small the
// buffer and however the transport fragments the stream, and leaves the
// reader standing at the next request.
func TestReadCommandOutgrowsReader(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 300<<10/16)
	set := Command{Verb: VerbSet, Key: "big", Value: big}
	get := Command{Verb: VerbGet, Key: "after"}
	for _, side := range []struct {
		codec  ServerCodec
		encode func([]byte, Command) ([]byte, error)
	}{{&TextCodec{}, AppendCommand}, {&RESPCodec{}, AppendRESPCommand}} {
		wire, _ := side.encode(nil, set)
		wire, _ = side.encode(wire, get)
		for _, size := range []int{16, 4 << 10, 16 << 10} {
			for name, fragment := range map[string]func(io.Reader) io.Reader{
				"OneByteReader": iotest.OneByteReader, "HalfReader": iotest.HalfReader,
			} {
				r := bufio.NewReaderSize(fragment(bytes.NewReader(wire)), size)
				for _, want := range []Command{set, get} {
					got, err := side.codec.ReadCommand(r)
					if err != nil || got.Verb != want.Verb || got.Key != want.Key || !bytes.Equal(got.Value, want.Value) {
						t.Fatalf("%s, %d-byte buffer, %s: %s %s = %s %s (%d-byte value), %v", side.codec.Name(), size, name,
							want.Verb, want.Key, got.Verb, got.Key, len(got.Value), err)
					}
				}
				if _, err := side.codec.ReadCommand(r); err != io.EOF {
					t.Fatalf("%s, %d-byte buffer, %s: after both requests: %v, want io.EOF", side.codec.Name(), size, name, err)
				}
			}
		}
	}
}

// TestReadCommandCutMidRequest: a stream that ends inside a request is a
// fatal "truncated request" wherever it ends, and a transport error
// inside one (a read deadline) surfaces as itself — the server counts it
// as the transport's failure, not the client's grammar.
func TestReadCommandCutMidRequest(t *testing.T) {
	big := strings.Repeat("v", 40<<10) // outgrows the reader: the own-storage path
	for _, side := range []struct {
		codec ServerCodec
		cuts  []string
	}{
		{&TextCodec{}, []string{"GE", "SET k 5\r\nhel", "SET k 5\r\nhello\r", "SET k 40960\r\n" + big[:20<<10]}},
		{&RESPCodec{}, []string{"*2\r", "*2\r\n$3\r\nGET\r\n$1", "*2\r\n$3\r\nGET\r\n$1\r\nk", "*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$40960\r\n" + big[:20<<10]}},
	} {
		for _, in := range side.cuts {
			_, err := side.codec.ReadCommand(bufio.NewReader(strings.NewReader(in)))
			var ce *ClientError
			if !errors.As(err, &ce) || !ce.Fatal || ce.Msg != "truncated request" {
				t.Errorf("%s EOF after %.30q: %v, want fatal truncated request", side.codec.Name(), in, err)
			}
			r := bufio.NewReader(io.MultiReader(strings.NewReader(in), iotest.ErrReader(iotest.ErrTimeout)))
			if _, err := side.codec.ReadCommand(r); err != iotest.ErrTimeout {
				t.Errorf("%s timeout after %.30q: %v, want the transport's error", side.codec.Name(), in, err)
			}
		}
	}
}
