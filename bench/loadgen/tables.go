package loadgen

import (
	"fmt"
	"strconv"
)

// Tables holds a workload's keys, values and pre-encoded requests: three
// byte slices per key (read, SET, DEL), so building a batch is a memcpy
// per command and costs the same whatever the server does.
type Tables struct {
	Text bool
	Keys []string
	Vals [][]byte
	req  [3][][]byte // indexed by slot(verb), then key index
}

// KeyLen is the length of every key, "key:%08d".
const KeyLen = 12

// slot maps a verb to its request table: GET and RANGE share the read slot
// because a workload uses one or the other.
func slot(v Verb) int {
	switch v {
	case Set:
		return 1
	case Del:
		return 2
	default:
		return 0
	}
}

// NewTables encodes every request the workload can send.
func NewTables(w *Workload) *Tables {
	t := &Tables{Text: w.Text, Keys: make([]string, w.Keys), Vals: make([][]byte, w.Keys)}
	vals := make([]byte, 0, w.Keys*w.ValueSize)
	for k := range t.Keys {
		key := fmt.Sprintf("key:%08d", k)
		t.Keys[k] = key
		// A value is its key repeated to size, so every value read back
		// names the key it must belong to.
		start := len(vals)
		for len(vals)-start < w.ValueSize {
			vals = append(vals, key[:min(KeyLen, w.ValueSize-(len(vals)-start))]...)
		}
		t.Vals[k] = vals[start:len(vals):len(vals)]
	}
	read := Get
	if w.Scan {
		read = Range
	}
	arena := make([]byte, 0, w.Keys*(w.ValueSize+160))
	for _, v := range []Verb{read, Set, Del} {
		t.req[slot(v)] = make([][]byte, w.Keys)
		for k := range t.Keys {
			start := len(arena)
			arena = t.appendRequest(arena, Op{Verb: v, Key: uint32(k)})
			t.req[slot(v)][k] = arena[start:len(arena):len(arena)]
		}
	}
	return t
}

// Request returns the wire bytes of op. The slice is shared: do not modify.
func (t *Tables) Request(op Op) []byte { return t.req[slot(op.Verb)][op.Key] }

func (t *Tables) appendRequest(dst []byte, op Op) []byte {
	key, val := t.Keys[op.Key], t.Vals[op.Key]
	if t.Text {
		switch op.Verb {
		case Get:
			dst = append(dst, "GET "...)
			dst = append(dst, key...)
		case Set:
			dst = append(dst, "SET "...)
			dst = append(dst, key...)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, int64(len(val)), 10)
			dst = append(dst, "\r\n"...)
			dst = append(dst, val...)
		case Del:
			dst = append(dst, "DELETE "...)
			dst = append(dst, key...)
		case Range:
			dst = append(dst, "RANGE "...)
			dst = append(dst, key...)
			dst = append(dst, ' ')
			dst = strconv.AppendInt(dst, RangeCount, 10)
		}
		return append(dst, "\r\n"...)
	}
	bulk := func(dst []byte, s string) []byte {
		dst = append(dst, '$')
		dst = strconv.AppendInt(dst, int64(len(s)), 10)
		dst = append(dst, "\r\n"...)
		dst = append(dst, s...)
		return append(dst, "\r\n"...)
	}
	switch op.Verb {
	case Get:
		dst = append(dst, "*2\r\n$3\r\nGET\r\n"...)
		dst = bulk(dst, key)
	case Set:
		dst = append(dst, "*3\r\n$3\r\nSET\r\n"...)
		dst = bulk(dst, key)
		dst = bulk(dst, string(val))
	case Del:
		dst = append(dst, "*2\r\n$3\r\nDEL\r\n"...)
		dst = bulk(dst, key)
	case Range:
		dst = append(dst, "*3\r\n$5\r\nRANGE\r\n"...)
		dst = bulk(dst, key)
		dst = bulk(dst, strconv.Itoa(RangeCount))
	}
	return dst
}

// KeyIndex parses a key of the form "key:%08d" back to its index,
// reporting whether b is such a key inside the table.
func (t *Tables) KeyIndex(b []byte) (uint32, bool) {
	if len(b) != KeyLen || string(b[:4]) != "key:" {
		return 0, false
	}
	n := 0
	for _, c := range b[4:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return uint32(n), n < len(t.Keys)
}
