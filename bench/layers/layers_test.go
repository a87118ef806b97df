package main

import (
	"bufio"
	"bytes"
	"context"
	"math"
	"net"
	"os"
	"testing"

	"valois/bench/loadgen"
	"valois/internal/proto"
	"valois/internal/server"
)

// Every request the generator can send must mean to both codecs what the
// generator thinks it means.
func TestBenchRequestsParseToTheIntendedCommand(t *testing.T) {
	for i := range loadgen.Workloads {
		w := &loadgen.Workloads[i]
		tab := loadgen.NewTables(w)
		var codec proto.ServerCodec = &proto.RESPCodec{}
		if w.Text {
			codec = &proto.TextCodec{}
		}
		read := loadgen.Get
		if w.Scan {
			read = loadgen.Range
		}
		for _, verb := range []loadgen.Verb{read, loadgen.Set, loadgen.Del} {
			for _, k := range []uint32{0, 1, uint32(w.Keys - 1)} {
				req := tab.Request(loadgen.Op{Verb: verb, Key: k})
				if !codec.Complete(req) {
					t.Errorf("%s: %q is not a complete request", w.Name, req)
				}
				br := bufio.NewReader(bytes.NewReader(req))
				cmd, err := codec.ReadCommand(br)
				if err != nil || br.Buffered() != 0 {
					t.Fatalf("%s: %q: %v, %d bytes left", w.Name, req, err, br.Buffered())
				}
				want := proto.Command{Key: tab.Keys[k]}
				switch verb {
				case loadgen.Get:
					want.Verb = proto.VerbGet
				case loadgen.Set:
					want.Verb, want.Value = proto.VerbSet, tab.Vals[k]
				case loadgen.Del:
					want.Verb = proto.VerbDelete
				case loadgen.Range:
					want.Verb, want.Count = proto.VerbRange, loadgen.RangeCount
				}
				if cmd.Verb != want.Verb || cmd.Key != want.Key || cmd.Count != want.Count || !bytes.Equal(cmd.Value, want.Value) {
					t.Errorf("%s: %q parsed to %+v, want %+v", w.Name, req, cmd, want)
				}
			}
		}
	}
}

// testWorkload is workload i cut down to a test's time budget.
func testWorkload(i int) *loadgen.Workload {
	w := loadgen.Workloads[i]
	w.TraceOps = 40 * w.Depth
	return &w
}

// The replay is a mirror of the server. Its replies, served by the
// loopback responder, must pass the bench scanner and the oracle model;
// so must the real server's on the same batches. That is three parties
// agreeing on every reply: codec-encoded replies parse with the bench
// scanner, and the mirror of shard.set and rangeMerged still mirrors.
func TestReplayServerAndModelAgree(t *testing.T) {
	for i := range loadgen.Workloads {
		rp := newReplayer(testWorkload(i), 3, t.TempDir())
		rec := NewRecorder(0)
		_, replies, err := rp.pass(rec, true, true)
		if err != nil {
			t.Fatalf("%s: replay: %v", rp.w.Name, err)
		}
		if _, err := rp.loopbackWall(replies); err != nil {
			t.Errorf("%s: replay's replies against scanner and model: %v", rp.w.Name, err)
		}
		if _, err := rp.inprocWall(); err != nil {
			t.Errorf("%s: server's replies against scanner and model: %v", rp.w.Name, err)
		}
		children := 3
		if rp.w.Durable {
			children = 4
		}
		if want := len(rp.batches) * (1 + children); len(rec.Spans) != want {
			t.Errorf("%s: %d spans, want %d", rp.w.Name, len(rec.Spans), want)
		}
		replies[len(replies)/2][0] ^= 1 // plant one wrong reply byte
		if _, err := rp.loopbackWall(replies); err == nil {
			t.Errorf("%s: a corrupted reply passed", rp.w.Name)
		}
	}
}

// The oracle must fail a real server whose state differs from the model.
func TestOracleAgainstTheRealServer(t *testing.T) {
	w := testWorkload(0)
	tab := loadgen.NewTables(w)
	srv, err := server.New(server.Config{Backend: w.Backend, Mode: w.Mode})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	c, err := loadgen.Dial(ln.Addr().String(), tab)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := loadgen.Prefill(c, w); err != nil {
		t.Fatal(err)
	}
	m := loadgen.NewModel(w)
	if err := loadgen.Oracle(c, w, loadgen.NewStream(w, 1, 0), m, 2000); err != nil {
		t.Fatalf("oracle pass on a correct server: %v", err)
	}
	st, err := c.Stats()
	if err != nil || st["cmd_get"] != c.Counts.Gets || st["cmd_set"] != c.Counts.Sets || st["get_hits"] != c.Counts.GetHits {
		t.Errorf("STATS %v, %v; client counts %+v", st, err, c.Counts)
	}
	m.Apply(loadgen.Op{Verb: loadgen.Set, Key: 1}) // the server never saw this SET
	ops := []loadgen.Op{{Verb: loadgen.Get, Key: 1}}
	if err := c.Do(ops, m.Checker(ops)); err == nil {
		t.Fatal("server and model disagree on key 1 and the oracle passed")
	}
}

func TestSelfTimeAndBudget(t *testing.T) {
	r := &Recorder{}
	batch := r.Add(0, "bench", "batch", 0, 100)
	r.Add(batch, "proto", "parse", 5, 25)
	exec := r.Add(batch, "dict", "exec", 25, 85)
	r.Add(exec, "mm", "alloc", 30, 40)
	r.Add(batch, "proto", "reply", 85, 95)
	self := SelfTimes(r.Spans)
	if self[batch] != 10 || self[exec] != 50 {
		t.Errorf("self times %v", self)
	}
	by := SelfByName(r.Spans)
	total := int64(0)
	for _, v := range by {
		total += v
	}
	if total != 100 || by["dict.exec"] != 50 || by["proto.parse"] != 20 || by["bench.batch"] != 10 {
		t.Errorf("self by name %v, total %d", by, total)
	}
	for _, c := range [][5]float64{{2500, 500, 300, 1200, 280}, {1000, 400, 300, 500, 0}} {
		shares := Budget(c[0], c[1], c[2], c[3], c[4])
		sum := 0.0
		for _, s := range shares {
			sum += s
		}
		if len(shares) != 5 || math.Abs(sum-1) > 1e-12 {
			t.Errorf("budget %v sums to %v", shares, sum)
		}
	}
	if s := Budget(1000, 400, 300, 500, 0)["budget.server_self_share"]; math.Abs(s+0.2) > 1e-12 {
		t.Errorf("overstated parts must show as a negative remainder, got %v", s)
	}
	path := t.TempDir() + "/trace.json"
	if err := WriteTrace(path, "w", 1, r.Spans); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); !bytes.Contains(b, []byte(`"layer":"dict","name":"exec","start_ns":25,"end_ns":85`)) {
		t.Errorf("trace file: %s", b)
	}
}
