package proto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// FuzzReadReply feeds arbitrary bytes to the client-side reply reader —
// the path a byte-flipping network reaches (see internal/faultnet's
// corruption fault). Whatever arrives, the reader must terminate without
// panicking, return only classified errors, and never hand the caller a
// malformed field set.
func FuzzReadReply(f *testing.F) {
	f.Add([]byte("STORED\r\n"))
	f.Add([]byte("END\r\n"))
	f.Add([]byte("VALUE k 5\r\nhello\r\nEND\r\n"))
	f.Add([]byte("VALUE k 99\r\nshort\r\n"))
	f.Add([]byte("VALUE k -1\r\n"))
	f.Add([]byte("VALUE k 1048577\r\n"))
	f.Add([]byte("STAT cmd_get 12\r\nEND\r\n"))
	f.Add([]byte("CLIENT_ERROR bad key\r\nSTORED\r\n"))
	f.Add([]byte("SERVER_ERROR too many connections\r\n"))
	f.Add([]byte("ERROR\r\n"))
	f.Add([]byte("\r\n\r\n"))
	f.Add(bytes.Repeat([]byte("y"), MaxLineLen*2))
	f.Add([]byte{0xff, 0x00, 0x0d, 0x0a})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		// A client loops over reply lines; bound by the input length so
		// the target always terminates.
		for i := 0; i <= len(data); i++ {
			fields, err := ReadReplyLine(r)
			if err != nil {
				var re *ReplyError
				var ce *ClientError
				switch {
				case errors.As(err, &re):
					if re.Kind != "ERROR" && re.Kind != "CLIENT_ERROR" && re.Kind != "SERVER_ERROR" {
						t.Fatalf("ReplyError with invalid kind %q", re.Kind)
					}
					continue // an error reply; the client keeps the stream
				case errors.As(err, &ce):
					return // framing lost (over-long or truncated line)
				case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
					return
				case err.Error() == "proto: empty reply line":
					continue
				default:
					t.Fatalf("unclassified error type %T: %v", err, err)
				}
			}
			if len(fields) == 0 {
				t.Fatal("ReadReplyLine returned no fields and no error")
			}
			// Tokens are split on space and tab only (asciiFields), so a
			// stray CR inside a line stays in its token — seed-stray-cr —
			// and the client rejects the token as an unexpected reply.
			for _, fd := range fields {
				if fd == "" || strings.ContainsAny(fd, " \t\n") {
					t.Fatalf("reply field %q is not a clean token", fd)
				}
			}
			// Consume VALUE payloads the way the client does, so the
			// size-field and terminator paths of ReadValueBlock run too.
			if fields[0] == "VALUE" && len(fields) == 3 {
				if _, err := ReadValueBlock(r, fields[2]); err != nil {
					return // bad size or cut stream: the client drops the conn
				}
			}
		}
	})
}

// FuzzCommandRoundTrip checks that for every command the client can
// legally send, AppendCommand → ReadCommand is the identity, and that
// re-encoding the parsed command reproduces the original bytes — the
// two ends of the protocol cannot drift apart on any input.
func FuzzCommandRoundTrip(f *testing.F) {
	f.Add(int(VerbGet), "k", []byte(nil), 0)
	f.Add(int(VerbSet), "key:with:colons", []byte("some value\r\nwith CRLF"), 0)
	f.Add(int(VerbSet), "k", []byte{}, 0)
	f.Add(int(VerbDelete), "zz", []byte(nil), 0)
	f.Add(int(VerbRange), "start", []byte(nil), 100)
	f.Add(int(VerbStats), "", []byte(nil), 0)
	f.Add(int(VerbQuit), "", []byte(nil), 0)
	f.Fuzz(func(t *testing.T, verb int, key string, value []byte, count int) {
		cmd := Command{Verb: Verb(verb), Key: key, Value: value, Count: count}
		// Constrain to commands a correct client emits: AppendCommand does
		// not validate (the server's parser is the gate), so inputs the
		// wire grammar cannot represent are out of scope here.
		switch cmd.Verb {
		case VerbGet, VerbDelete, VerbSet, VerbRange:
			if !validKey([]byte(cmd.Key)) {
				t.Skip("key not representable on the wire")
			}
		case VerbStats, VerbQuit:
			cmd.Key = ""
		default:
			t.Skip("not a wire verb")
		}
		if cmd.Verb != VerbSet {
			cmd.Value = nil
		} else if len(cmd.Value) > MaxValueLen {
			cmd.Value = cmd.Value[:MaxValueLen]
		}
		if cmd.Verb == VerbRange {
			if cmd.Count < 1 || cmd.Count > MaxRange {
				t.Skip("count not representable on the wire")
			}
		} else {
			cmd.Count = 0
		}

		encoded, err := AppendCommand(nil, cmd)
		if err != nil {
			t.Fatalf("AppendCommand(%+v): %v", cmd, err)
		}

		parsed, err := ReadCommand(bufio.NewReader(bytes.NewReader(encoded)))
		if err != nil {
			t.Fatalf("ReadCommand of our own encoding %q: %v", encoded, err)
		}
		if parsed.Verb != cmd.Verb || parsed.Key != cmd.Key || parsed.Count != cmd.Count || !bytes.Equal(parsed.Value, cmd.Value) {
			t.Fatalf("round trip changed the command:\nsent   %+v\nparsed %+v", cmd, parsed)
		}

		again, err := AppendCommand(nil, parsed)
		if err != nil {
			t.Fatalf("re-encoding parsed command: %v", err)
		}
		if !bytes.Equal(again, encoded) {
			t.Fatalf("re-encoding differs:\nfirst  %q\nsecond %q", encoded, again)
		}
	})
}
