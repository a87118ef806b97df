package persist

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"valois/internal/proto"
)

// FuzzAOFRecord is the durability analogue of proto's round-trip fuzz:
// encode a command, frame it as an AOF record, then mutilate the framed
// bytes the way a crash can — truncation anywhere (torn tail) or a bit
// flip (corruption) — and require the scanner to classify the damage
// correctly and never to hand back a record that differs from what was
// framed.
//
// Invariants:
//  1. Untouched: the scanner returns exactly the framed payloads and the
//     payload decodes back to the original command.
//  2. Truncated final record: ErrTornTail, never a short payload.
//  3. A flipped byte inside the last record: ErrTornTail or CorruptError
//     (a flip in the length field can make the record "extend past EOF"),
//     never a wrong payload accepted — except a flip that leaves the
//     bytes self-consistent, which CRC-32 makes vanishingly unlikely and
//     the check below would catch.
//  4. The scanner never panics on arbitrary prefixes.
func FuzzAOFRecord(f *testing.F) {
	// Corpus seeds: the record shapes recovery actually meets — SETs of
	// varying sizes, DELETEs, empty values, binary values with CRLFs —
	// cut/flip positions spanning header, payload, and terminator bytes.
	f.Add("k", []byte("v"), uint16(0), uint16(0))
	f.Add("key", []byte(""), uint16(3), uint16(0))
	f.Add("a-longer-key", []byte("value with \r\n inside"), uint16(9), uint16(4))
	f.Add("k", bytes.Repeat([]byte{0xA5}, 300), uint16(200), uint16(7))
	f.Add("del-me", []byte(nil), uint16(1), uint16(12))
	f.Add("k2", []byte("x"), uint16(65535), uint16(65535))

	f.Fuzz(func(t *testing.T, key string, value []byte, cut uint16, flip uint16) {
		cmd := proto.Command{Verb: proto.VerbSet, Key: key, Value: value}
		if value == nil {
			cmd = proto.Command{Verb: proto.VerbDelete, Key: key}
		}
		payload, err := proto.AppendCommand(nil, cmd)
		if err != nil {
			// The encoder refuses keys the grammar forbids (spaces, control
			// bytes): such a key would decode as a different command — the
			// committed seed "0 " re-encoded with a doubled space — so it
			// never enters the log.
			t.Skip()
		}
		framed := AppendRecord(nil, payload)

		// 1. Round trip of the intact frame.
		sc := NewRecordScanner(bytes.NewReader(framed))
		got, err := sc.Next()
		if err != nil {
			t.Fatalf("intact frame rejected: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("intact frame returned %q, want %q", got, payload)
		}
		// Whatever the encoder accepted must decode back to a command
		// whose re-encoding is identical (the encoder does not bound
		// values; the server never hands it one past MaxValueLen).
		dec, err := proto.DecodeCommand(got)
		if err != nil && len(value) > proto.MaxValueLen {
			t.Skip()
		}
		if err != nil {
			t.Fatalf("DecodeCommand(%q): %v", got, err)
		}
		if re, err := proto.AppendCommand(nil, dec); err != nil || !bytes.Equal(re, payload) {
			t.Fatalf("decode/re-encode drift: %q -> %+v -> %q (err %v)", payload, dec, re, err)
		}
		if _, err := sc.Next(); err != io.EOF {
			t.Fatalf("expected clean EOF after single record, got %v", err)
		}

		// 2. Truncation at every requested point: torn tail, never data.
		if int(cut) < len(framed) {
			sc := NewRecordScanner(bytes.NewReader(framed[:cut]))
			_, err := sc.Next()
			if !errors.Is(err, ErrTornTail) && err != io.EOF {
				t.Fatalf("truncated at %d: got %v, want ErrTornTail (or EOF at 0)", cut, err)
			}
			if err == io.EOF && cut != 0 {
				t.Fatalf("truncated at %d returned clean EOF", cut)
			}
		}

		// 3. A flipped byte: must never yield a DIFFERENT payload.
		if int(flip) < len(framed) {
			mut := append([]byte(nil), framed...)
			mut[flip] ^= 0x40
			sc := NewRecordScanner(bytes.NewReader(mut))
			got, err := sc.Next()
			if err == nil && !bytes.Equal(got, payload) {
				t.Fatalf("flip at %d accepted altered payload %q", flip, got)
			}
			var ce *CorruptError
			if err != nil && !errors.Is(err, ErrTornTail) && !errors.As(err, &ce) {
				t.Fatalf("flip at %d: unexpected error class %v", flip, err)
			}
		}

		// 4. Arbitrary garbage prefix never panics the scanner.
		sc = NewRecordScanner(bytes.NewReader(value))
		for {
			if _, err := sc.Next(); err != nil {
				break
			}
		}
	})
}
