package proto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func reader(s string) *bufio.Reader { return bufio.NewReader(strings.NewReader(s)) }

// chunkedReader returns each chunk from a separate Read call, the way a
// TCP stream can deliver a pipelined request in arbitrary pieces.
type chunkedReader struct{ chunks []string }

func (c *chunkedReader) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if n == len(c.chunks[0]) {
		c.chunks = c.chunks[1:]
	} else {
		c.chunks[0] = c.chunks[0][n:]
	}
	return n, nil
}

// TestReadCommandSetSplitMidValue is a regression test: when the SET
// command line and its data block arrive in separate reads, fetching the
// data block refills the bufio buffer the parsed key still points into.
// The key must be copied out before that refill, or a corrupted key —
// arbitrary later stream bytes, including CR/LF that validKey could never
// pass — gets stored.
func TestReadCommandSetSplitMidValue(t *testing.T) {
	for _, split := range []int{13, 15, 17} { // before, inside, after "hello"
		stream := "SET alpha 5\r\nhello\r\nSET beta 4\r\nbeta\r\n"
		r := bufio.NewReader(&chunkedReader{chunks: []string{stream[:split], stream[split:]}})
		first, err := ReadCommand(r)
		if err != nil {
			t.Fatalf("split %d: first command: %v", split, err)
		}
		if first.Key != "alpha" || string(first.Value) != "hello" {
			t.Fatalf("split %d: got key %q value %q, want alpha/hello", split, first.Key, first.Value)
		}
		second, err := ReadCommand(r)
		if err != nil {
			t.Fatalf("split %d: second command: %v", split, err)
		}
		if second.Key != "beta" || string(second.Value) != "beta" {
			t.Fatalf("split %d: got key %q value %q, want beta/beta", split, second.Key, second.Value)
		}
	}
}

func TestReadCommandWellFormed(t *testing.T) {
	tests := []struct {
		in   string
		want Command
	}{
		{"GET foo\r\n", Command{Verb: VerbGet, Key: "foo"}},
		{"get foo\n", Command{Verb: VerbGet, Key: "foo"}},
		{"SET k 5\r\nhello\r\n", Command{Verb: VerbSet, Key: "k", Value: []byte("hello")}},
		{"SET k 0\r\n\r\n", Command{Verb: VerbSet, Key: "k", Value: []byte{}}},
		{"SET k 2\nhi\n", Command{Verb: VerbSet, Key: "k", Value: []byte("hi")}},
		{"DELETE k\r\n", Command{Verb: VerbDelete, Key: "k"}},
		{"RANGE a 10\r\n", Command{Verb: VerbRange, Key: "a", Count: 10}},
		{"STATS\r\n", Command{Verb: VerbStats}},
		{"QUIT\r\n", Command{Verb: VerbQuit}},
	}
	for _, tt := range tests {
		got, err := ReadCommand(reader(tt.in))
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

// malformedText is TestReadCommandMalformed's table; TestCompleteScanners
// checks the pipeline scanner against the same rows.
var malformedText = []struct {
	in    string
	fatal bool
}{
	{"\r\n", false},        // empty request
	{"GET\r\n", false},     // missing key
	{"GET a b\r\n", false}, // extra argument
	{"GET " + strings.Repeat("k", MaxKeyLen+1) + "\r\n", false}, // oversized key
	{"GET ba\x01d\r\n", false},                                  // control byte in key
	{"SET k notanumber\r\n", false},                             // bad length
	{"SET k -1\r\n", false},                                     // negative length
	{"SET k 5\r\nhelloXY", true},                                // data block missing CRLF
	{"SET k 5\r\nhel", true},                                    // truncated data block
	{"SET k 9999999999\r\n", true},                              // over-limit value
	{"RANGE a 0\r\n", false},                                    // count below 1
	{"RANGE a\r\n", false},                                      // missing count
	{"STATS now\r\n", false},                                    // STATS takes no args
	{strings.Repeat("x", MaxLineLen+10) + "\r\n", true},         // over-long line
	{"GET truncated", true},                                     // no terminator before EOF
}

func TestReadCommandMalformed(t *testing.T) {
	for _, tt := range malformedText {
		_, err := ReadCommand(reader(tt.in))
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

func TestReadCommandUnknownVerb(t *testing.T) {
	if _, err := ReadCommand(reader("FROB x\r\n")); !errors.Is(err, ErrUnknownVerb) {
		t.Fatalf("error = %v, want ErrUnknownVerb", err)
	}
}

func TestReadCommandEOF(t *testing.T) {
	if _, err := ReadCommand(reader("")); !errors.Is(err, io.EOF) {
		t.Fatalf("error = %v, want io.EOF", err)
	}
}

// TestCommandRoundTrip encodes every verb with AppendCommand and parses
// it back with ReadCommand.
func TestCommandRoundTrip(t *testing.T) {
	cmds := []Command{
		{Verb: VerbGet, Key: "alpha"},
		{Verb: VerbSet, Key: "beta", Value: []byte("some bytes\nwith a newline")},
		{Verb: VerbSet, Key: "empty", Value: nil},
		{Verb: VerbDelete, Key: "gamma"},
		{Verb: VerbRange, Key: "delta", Count: 99},
		{Verb: VerbStats},
		{Verb: VerbQuit},
	}
	var wire []byte
	for _, c := range cmds {
		var err error
		if wire, err = AppendCommand(wire, c); err != nil {
			t.Fatalf("AppendCommand(%v): %v", c.Verb, err)
		}
	}
	r := bufio.NewReader(bytes.NewReader(wire))
	for _, want := range cmds {
		got, err := ReadCommand(r)
		if err != nil {
			t.Fatalf("ReadCommand after AppendCommand(%v): %v", want.Verb, err)
		}
		if got.Verb != want.Verb || got.Key != want.Key || got.Count != want.Count ||
			!bytes.Equal(got.Value, want.Value) {
			t.Fatalf("round trip = %+v, want %+v", got, want)
		}
	}
}

// TestReplyLines reads the server's text reply writers back with the
// client's readers.
func TestReplyLines(t *testing.T) {
	var tc TextCodec
	wire := tc.AppendRangeItem(nil, "k", []byte("vv"))
	wire = tc.AppendStatItem(wire, "ops", "12")
	wire = tc.AppendStatsTrailer(wire)

	r := bufio.NewReader(bytes.NewReader(wire))
	fields, err := ReadReplyLine(r)
	if err != nil || len(fields) != 3 || fields[0] != "VALUE" || fields[1] != "k" {
		t.Fatalf("VALUE header = %v, %v", fields, err)
	}
	data, err := ReadValueBlock(r, fields[2])
	if err != nil || string(data) != "vv" {
		t.Fatalf("value block = %q, %v", data, err)
	}
	if fields, err = ReadReplyLine(r); err != nil || fields[0] != "STAT" || fields[2] != "12" {
		t.Fatalf("STAT line = %v, %v", fields, err)
	}
	if fields, err = ReadReplyLine(r); err != nil || fields[0] != ReplyEnd {
		t.Fatalf("END line = %v, %v", fields, err)
	}
}

func TestReplyErrors(t *testing.T) {
	var tc TextCodec
	wire := tc.AppendClientError(nil, "bad\r\nthing")
	wire = tc.AppendServerError(wire, "boom")
	wire = tc.AppendUnknownVerb(wire)

	r := bufio.NewReader(bytes.NewReader(wire))
	for _, wantKind := range []string{"CLIENT_ERROR", "SERVER_ERROR", "ERROR"} {
		_, err := ReadReplyLine(r)
		var re *ReplyError
		if !errors.As(err, &re) || re.Kind != wantKind {
			t.Fatalf("reply error = %v, want kind %s", err, wantKind)
		}
		if strings.ContainsAny(re.Msg, "\r\n") {
			t.Fatalf("reply message %q not sanitized", re.Msg)
		}
	}
}

// TestAppendCommandCanonical pins the canonical encoder: AppendCommand's
// bytes must round-trip through DecodeCommand unchanged — the AOF replay
// path and the wire path are the same encoding by construction.
func TestAppendCommandCanonical(t *testing.T) {
	cmds := []Command{
		{Verb: VerbGet, Key: "k"},
		{Verb: VerbSet, Key: "k", Value: []byte("hello")},
		{Verb: VerbSet, Key: "k", Value: nil},
		{Verb: VerbSet, Key: "k", Value: []byte("line\r\nbreak")},
		{Verb: VerbDelete, Key: "a-key"},
		{Verb: VerbRange, Key: "start", Count: 42},
		{Verb: VerbStats},
		{Verb: VerbQuit},
	}
	for _, c := range cmds {
		enc, err := AppendCommand(nil, c)
		if err != nil {
			t.Fatalf("AppendCommand(%v): %v", c.Verb, err)
		}
		if c.Verb == VerbQuit {
			continue // ReadCommand returns QUIT without consuming trailing state
		}
		got, err := DecodeCommand(enc)
		if err != nil {
			t.Fatalf("DecodeCommand(%q): %v", enc, err)
		}
		if got.Verb != c.Verb || got.Key != c.Key || got.Count != c.Count || !bytes.Equal(got.Value, c.Value) {
			t.Errorf("round trip %v: got %+v, want %+v", c.Verb, got, c)
		}
	}
}

// TestDecodeCommandRejectsTrailing ensures a framed record holding more
// than one command (or stray bytes) is rejected rather than silently
// replaying only a prefix.
func TestDecodeCommandRejectsTrailing(t *testing.T) {
	enc, err := AppendCommand(nil, Command{Verb: VerbDelete, Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCommand(append(enc, "GET x\r\n"...)); err == nil {
		t.Error("DecodeCommand accepted trailing bytes")
	}
	if _, err := DecodeCommand(nil); err == nil {
		t.Error("DecodeCommand accepted empty payload")
	}
}
