package loadgen

import (
	"bytes"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestStreamIsAFunctionOfSeedAndConn(t *testing.T) {
	for i := range Workloads {
		w := &Workloads[i]
		take := func(seed int64, conn int) []Op {
			ops := make([]Op, 4096)
			NewStream(w, seed, conn).Fill(ops)
			return ops
		}
		if !slices.Equal(take(7, 0), take(7, 0)) {
			t.Errorf("%s: same seed, different streams", w.Name)
		}
		if slices.Equal(take(7, 0), take(8, 0)) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.Name)
		}
		if slices.Equal(take(7, 0), take(7, 1)) {
			t.Errorf("%s: connections 0 and 1 share a stream", w.Name)
		}
		reads := 0
		for _, op := range take(7, 0) {
			if int(op.Key) >= w.Keys {
				t.Fatalf("%s: key %d outside the key space", w.Name, op.Key)
			}
			if (op.Verb == Range) != (w.Scan && op.Verb != Set && op.Verb != Del) {
				t.Fatalf("%s: verb %d does not fit the workload", w.Name, op.Verb)
			}
			if op.Verb == Get || op.Verb == Range {
				reads++
			}
		}
		if got := 100 * reads / 4096; got < w.ReadPct-4 || got > w.ReadPct+4 {
			t.Errorf("%s: %d%% reads, want about %d%%", w.Name, got, w.ReadPct)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1}} {
		if got := Percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %d, want %d", c.p, got, c.want)
		}
	}
	if got := Percentile([]int64{42}, 99); got != 42 {
		t.Errorf("single sample p99 = %d", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("no samples p50 = %d", got)
	}
}

func TestMedianOfRounds(t *testing.T) {
	in := []float64{9, 1, 5}
	if got := Median(in); got != 5 {
		t.Errorf("median of three = %v", got)
	}
	if !slices.Equal(in, []float64{9, 1, 5}) {
		t.Error("Median reordered its argument")
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("median of none = %v", got)
	}
}

func TestModelIsASortedDictionary(t *testing.T) {
	w := &Workloads[3]
	m := NewModel(w)
	if hit, _ := m.Apply(Op{Get, 10}); !hit {
		t.Error("even key not prefilled")
	}
	if hit, _ := m.Apply(Op{Get, 11}); hit {
		t.Error("odd key prefilled")
	}
	m.Apply(Op{Set, 11})
	if hit, _ := m.Apply(Op{Del, 12}); !hit {
		t.Error("DEL of a bound key missed")
	}
	if hit, _ := m.Apply(Op{Del, 12}); hit {
		t.Error("second DEL hit")
	}
	_, items := m.Apply(Op{Range, 9})
	if len(items) != RangeCount || !slices.Equal(items[:4], []uint32{10, 11, 14, 16}) {
		t.Errorf("RANGE from 9 = %v", items)
	}
	_, items = m.Apply(Op{Range, uint32(w.Keys - 3)})
	if !slices.Equal(items, []uint32{uint32(w.Keys - 2)}) {
		t.Errorf("RANGE at the end = %v", items)
	}
}

func TestValuesNameTheirKey(t *testing.T) {
	for i := range Workloads {
		w := &Workloads[i]
		tab := NewTables(w)
		for _, k := range []int{0, 1, w.Keys - 1} {
			v := tab.Vals[k]
			if len(v) != w.ValueSize || !bytes.HasPrefix(v, []byte(tab.Keys[k])) {
				t.Errorf("%s: value of key %d is %q", w.Name, k, v)
			}
			if got, ok := tab.KeyIndex([]byte(tab.Keys[k])); !ok || int(got) != k {
				t.Errorf("%s: KeyIndex(%s) = %d, %v", w.Name, tab.Keys[k], got, ok)
			}
		}
		if _, ok := tab.KeyIndex([]byte("key:99999999")); ok {
			t.Errorf("%s: key outside the table accepted", w.Name)
		}
	}
}

// canned is a net.Conn that swallows writes and reads from a fixed reply.
type canned struct {
	net.Conn // nil: only the methods below are used
	r        io.Reader
}

func (c canned) Write(p []byte) (int, error) { return len(p), nil }
func (c canned) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c canned) SetDeadline(time.Time) error { return nil }
func (c canned) Close() error                { return nil }

func do(w *Workload, ops []Op, reply string) (*Conn, error) {
	c := NewConn(canned{r: strings.NewReader(reply)}, NewTables(w))
	return c, c.Do(ops, nil)
}

func TestScannerRejectsWrongReplies(t *testing.T) {
	resp, text, scan := &Workloads[0], &Workloads[2], &Workloads[3]
	v0 := string(NewTables(resp).Vals[0])
	t0 := string(NewTables(text).Vals[0])
	item := func(k string) string { return "$12\r\n" + k + "\r\n$64\r\n" + strings.Repeat(k, 6)[:64] + "\r\n" }
	for _, c := range []struct {
		name  string
		w     *Workload
		ops   []Op
		reply string
		ok    bool
	}{
		{"resp batch", resp, []Op{{Get, 0}, {Get, 1}, {Set, 2}, {Del, 3}, {Del, 4}}, "$64\r\n" + v0 + "\r\n$-1\r\n+OK\r\n:1\r\n:0\r\n", true},
		{"resp wrong value", resp, []Op{{Get, 1}}, "$64\r\n" + v0 + "\r\n", false},
		{"resp error reply", resp, []Op{{Set, 0}}, "-SERVER_ERROR durability failure\r\n", false},
		{"resp truncated", resp, []Op{{Get, 0}}, "$64\r\n" + v0[:10], false},
		{"resp reply of another verb", resp, []Op{{Del, 0}}, "+OK\r\n", false},
		{"text batch", text, []Op{{Get, 0}, {Get, 1}, {Set, 2}, {Del, 3}, {Del, 4}}, "VALUE key:00000000 256\r\n" + t0 + "\r\nEND\r\nEND\r\nSTORED\r\nDELETED\r\nNOT_FOUND\r\n", true},
		{"text value of another key", text, []Op{{Get, 1}}, "VALUE key:00000000 256\r\n" + t0 + "\r\nEND\r\n", false},
		{"text error reply", text, []Op{{Get, 0}}, "CLIENT_ERROR bad key\r\n", false},
		{"range ascending", scan, []Op{{Range, 3}}, "*4\r\n" + item("key:00000004") + item("key:00000006"), true},
		{"range empty", scan, []Op{{Range, 3}}, "*0\r\n", true},
		{"range before start", scan, []Op{{Range, 5}}, "*2\r\n" + item("key:00000004"), false},
		{"range out of order", scan, []Op{{Range, 3}}, "*4\r\n" + item("key:00000006") + item("key:00000004"), false},
		{"range repeated key", scan, []Op{{Range, 3}}, "*4\r\n" + item("key:00000004") + item("key:00000004"), false},
		{"range too long", scan, []Op{{Range, 0}}, "*66\r\n" + func() string {
			var s strings.Builder
			for k := 0; k < 33; k++ {
				s.WriteString(item(NewTables(scan).Keys[k]))
			}
			return s.String()
		}(), false},
	} {
		conn, err := do(c.w, c.ops, c.reply)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
		if c.ok && conn.Counts.Ops() != int64(len(c.ops)) {
			t.Errorf("%s: counted %d ops of %d", c.name, conn.Counts.Ops(), len(c.ops))
		}
	}
	conn, _ := do(resp, []Op{{Get, 0}, {Get, 1}, {Set, 2}, {Del, 3}, {Del, 4}}, "$64\r\n"+v0+"\r\n$-1\r\n+OK\r\n:1\r\n:0\r\n")
	if want := (Counts{Gets: 2, Sets: 1, Dels: 2, GetHits: 1, DelHits: 1}); conn.Counts != want {
		t.Errorf("counts = %+v, want %+v", conn.Counts, want)
	}
}

func TestOracleCatchesAPlantedWrongReply(t *testing.T) {
	w := &Workloads[0]
	ops := []Op{{Get, 0}, {Del, 0}, {Get, 0}}
	good := "$64\r\n" + string(NewTables(w).Vals[0]) + "\r\n:1\r\n$-1\r\n"
	run := func(m *Model) error {
		return NewConn(canned{r: strings.NewReader(good)}, NewTables(w)).Do(ops, m.Checker(ops))
	}
	if err := run(NewModel(w)); err != nil {
		t.Fatalf("correct replies rejected: %v", err)
	}
	flipped := NewModel(w)
	flipped.present[0] = false // the model now expects a miss where the server hits
	if err := run(flipped); err == nil {
		t.Fatal("a reply that contradicts the model passed the oracle")
	}
}

func TestStatsBothProtocols(t *testing.T) {
	for _, c := range []struct {
		w     *Workload
		reply string
	}{
		{&Workloads[0], "*6\r\n$7\r\nbackend\r\n$4\r\nhash\r\n$7\r\ncmd_get\r\n$2\r\n42\r\n$8\r\nmm_limbo\r\n$1\r\n0\r\n"},
		{&Workloads[2], "STAT backend hash\r\nSTAT cmd_get 42\r\nSTAT mm_limbo 0\r\nEND\r\n"},
	} {
		st, err := NewConn(canned{r: strings.NewReader(c.reply)}, NewTables(c.w)).Stats()
		if err != nil || st["cmd_get"] != 42 || len(st) != 2 {
			t.Errorf("%s: stats = %v, %v", c.w.Name, st, err)
		}
	}
}
