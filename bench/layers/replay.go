package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"valois/bench/loadgen"
	"valois/internal/core"
	"valois/internal/dict"
	"valois/internal/mm"
	"valois/internal/persist"
	"valois/internal/primitive"
	"valois/internal/proto"
	"valois/internal/skiplist"
)

// The replay mirrors, outside the server, what internal/server does with
// a batch: the same codec calls, the same 16 shards chosen the same way,
// SET as the same Insert / Delete+Insert loop, RANGE as the same
// collect-from-every-shard-and-sort, the same log appends. It has to be a
// mirror because this benchmark may not instrument the program. When the
// server's semantics change (an atomic SET, a k-way RANGE merge), a
// benchmark-only change updates the mirror; until then the difference
// shows up in budget.server_self_share, which is why that share is
// printed and not hidden.
const (
	numShards = 16   // valoisd -shards default
	buckets   = 1024 // valoisd -buckets default
	connBuf   = 16 << 10
)

// store is what the replay needs of a dictionary backend.
type store interface {
	dict.Dictionary[string, []byte]
	EnableStats()
	WorkStats() core.WorkStats
	Close()
}

type ranger interface {
	RangeFrom(start string, f func(key string, value []byte) bool)
}

type shards [numShards]store

func newShards(w *loadgen.Workload) (*shards, error) {
	mode, ok := mm.ParseMode(w.Mode)
	if !ok {
		return nil, fmt.Errorf("workload %s: unknown mode %q", w.Name, w.Mode)
	}
	var sh shards
	for i := range sh {
		switch w.Backend {
		case "hash":
			sh[i] = dict.NewHash[string, []byte](buckets, mode, dict.HashString)
		case "skiplist":
			sh[i] = skiplist.New[string, []byte](mode)
		default:
			return nil, fmt.Errorf("workload %s: unknown backend %q", w.Name, w.Backend)
		}
	}
	return &sh, nil
}

func (sh *shards) of(key string) store { return sh[dict.HashString(key)%numShards] }

func (sh *shards) close() {
	for _, d := range sh {
		d.Close()
	}
}

func (sh *shards) prefill(w *loadgen.Workload, tab *loadgen.Tables) {
	for k, key := range tab.Keys {
		if w.Prefilled(uint32(k)) {
			set(sh.of(key), key, tab.Vals[k])
		}
	}
}

func (sh *shards) workStats() core.WorkStats {
	var sum core.WorkStats
	for _, d := range sh {
		ws := d.WorkStats()
		sum.AuxSkips += ws.AuxSkips
		sum.BacklinkSteps += ws.BacklinkSteps
		sum.ChainSteps += ws.ChainSteps
		sum.DeleteCASRetries += ws.DeleteCASRetries
		sum.InsertRetries += ws.InsertRetries
		sum.DeleteRetries += ws.DeleteRetries
	}
	return sum
}

// set mirrors server.shard.set: Insert, and on refusal Delete and retry.
func set(d store, key string, value []byte) {
	var backoff primitive.Backoff
	for !d.Insert(key, value) {
		d.Delete(key)
		backoff.Wait()
	}
}

type kv struct {
	key   string
	value []byte
}

// rangeMerged mirrors server.rangeMerged, allocations included.
func (sh *shards) rangeMerged(start string, count int) []kv {
	var all []kv
	for _, d := range sh {
		taken := 0
		d.(ranger).RangeFrom(start, func(k string, v []byte) bool {
			all = append(all, kv{k, v})
			taken++
			return taken < count
		})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
	if len(all) > count {
		all = all[:count]
	}
	return all
}

// outcome is the result of one executed command, what the reply encodes.
type outcome struct {
	found bool
	value []byte
	items []kv
}

// replayer holds one workload's fixed inputs: the first TraceOps
// operations of connection 0's stream, cut into batches of the workload's
// depth, after the same prefill the wire run does.
type replayer struct {
	w       *loadgen.Workload
	tab     *loadgen.Tables
	batches [][]loadgen.Op
	ops     int
	tmp     string
}

func newReplayer(w *loadgen.Workload, seed int64, tmp string) *replayer {
	rp := &replayer{w: w, tab: loadgen.NewTables(w), ops: w.TraceOps, tmp: tmp}
	s := loadgen.NewStream(w, seed, 0)
	for done := 0; done < w.TraceOps; {
		b := make([]loadgen.Op, min(w.Depth, w.TraceOps-done))
		s.Fill(b)
		rp.batches = append(rp.batches, b)
		done += len(b)
	}
	return rp
}

func (rp *replayer) codec() proto.ServerCodec {
	if rp.w.Text {
		return &proto.TextCodec{}
	}
	return &proto.RESPCodec{}
}

func (rp *replayer) request(dst []byte, ops []loadgen.Op) []byte {
	dst = dst[:0]
	for _, op := range ops {
		dst = append(dst, rp.tab.Request(op)...)
	}
	return dst
}

// parse reads one batch's commands off its request bytes the way
// conn.readBatch does: ReadCommand, then Complete on whatever is still
// buffered before the next one.
func parse(codec proto.ServerCodec, br *bufio.Reader, rd *bytes.Reader, req []byte, cmds []proto.Command) ([]proto.Command, error) {
	rd.Reset(req)
	br.Reset(rd)
	for {
		cmd, err := codec.ReadCommand(br)
		if err != nil {
			return cmds, err
		}
		cmds = append(cmds, cmd)
		n := br.Buffered()
		if n == 0 {
			if rd.Len() == 0 {
				return cmds, nil
			}
			continue
		}
		buffered, _ := br.Peek(n)
		codec.Complete(buffered)
	}
}

// appendReply mirrors server.appendEntryReply for the verbs the workloads
// send.
func appendReply(codec proto.ServerCodec, dst []byte, cmd *proto.Command, o *outcome) []byte {
	switch cmd.Verb {
	case proto.VerbGet:
		dst = codec.AppendGetReply(dst, cmd.Key, o.value, o.found)
	case proto.VerbSet:
		dst = codec.AppendSetReply(dst)
	case proto.VerbDelete:
		dst = codec.AppendDeleteReply(dst, o.found)
	case proto.VerbRange:
		dst = codec.AppendRangeHeader(dst, len(o.items))
		for _, it := range o.items {
			dst = codec.AppendRangeItem(dst, it.key, it.value)
		}
		dst = codec.AppendRangeTrailer(dst)
	}
	return dst
}

// pass replays every batch through parse, execute, log append and reply
// encode on one goroutine and returns the wall time of the whole loop.
// With record it also records, per batch, one parent span and one child
// span per phase; comparing its wall time with a pass without is the
// tracing overhead. Both kinds of pass are handed a recorder, so both run
// on the same heap and the collector paces them alike. With keep it
// returns each batch's reply bytes.
func (rp *replayer) pass(rec *Recorder, record, keep bool) (wall time.Duration, replies [][]byte, err error) {
	sh, err := newShards(rp.w)
	if err != nil {
		return 0, nil, err
	}
	defer sh.close()
	sh.prefill(rp.w, rp.tab)
	var log *persist.Log
	if rp.w.Durable {
		dir, err := os.MkdirTemp(rp.tmp, "replay-")
		if err != nil {
			return 0, nil, err
		}
		defer os.RemoveAll(dir)
		if log, _, err = persist.Open(dir, persist.PolicyEverySec, func(proto.Command) error { return nil }, nil); err != nil {
			return 0, nil, err
		}
		defer log.Close()
	}
	var (
		codec = rp.codec()
		rd    = bytes.NewReader(nil)
		br    = bufio.NewReaderSize(rd, connBuf)
		req   []byte
		out   []byte
		cmds  = make([]proto.Command, 0, rp.w.Depth)
		outs  = make([]outcome, rp.w.Depth)
		t     [5]int64
	)
	start := time.Now()
	for _, ops := range rp.batches {
		req = rp.request(req, ops)
		if record {
			t[0] = rec.Now()
		}
		if cmds, err = parse(codec, br, rd, req, cmds[:0]); err != nil {
			return 0, nil, err
		}
		if record {
			t[1] = rec.Now()
		}
		for i := range cmds {
			c, o := &cmds[i], &outs[i]
			*o = outcome{}
			switch c.Verb {
			case proto.VerbGet:
				o.value, o.found = sh.of(c.Key).Find(c.Key)
			case proto.VerbSet:
				set(sh.of(c.Key), c.Key, c.Value)
			case proto.VerbDelete:
				o.found = sh.of(c.Key).Delete(c.Key)
			case proto.VerbRange:
				o.items = sh.rangeMerged(c.Key, c.Count)
			}
		}
		if record {
			t[2] = rec.Now()
		}
		if log != nil {
			for i := range cmds {
				switch c := &cmds[i]; {
				case c.Verb == proto.VerbSet:
					err = log.Append(*c)
				case c.Verb == proto.VerbDelete && outs[i].found:
					err = log.Append(proto.Command{Verb: proto.VerbDelete, Key: c.Key})
				}
				if err != nil {
					return 0, nil, err
				}
			}
		}
		if record {
			t[3] = rec.Now()
		}
		out = out[:0]
		for i := range cmds {
			out = appendReply(codec, out, &cmds[i], &outs[i])
		}
		if record {
			t[4] = rec.Now()
			batch := rec.Add(0, "bench", "batch", t[0], t[4])
			rec.Add(batch, "proto", "parse", t[0], t[1])
			rec.Add(batch, "dict", "exec", t[1], t[2])
			if log != nil {
				rec.Add(batch, "persist", "append", t[2], t[3])
			}
			rec.Add(batch, "proto", "reply", t[3], t[4])
		}
		if keep {
			replies = append(replies, bytes.Clone(out))
		}
	}
	return time.Since(start), replies, nil
}

// countMallocs runs f with the collector off and returns how many heap
// objects it allocated. One goroutine and no collector make the count a
// property of the code and the inputs.
func countMallocs(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// clockCost is what one time.Now costs, the constant every timed interval
// of the dictionary pass includes once.
func clockCost() time.Duration {
	const n = 100000
	start := time.Now()
	var last time.Time
	for i := 0; i < n; i++ {
		last = time.Now()
	}
	return last.Sub(start) / n
}

// dictTimes is the dictionary pass's result: time per call kind, the
// paper's extra-work counts, allocations, and the mutations a log would
// have received.
type dictTimes struct {
	find, insert, del, set, rng time.Duration // totals, clock cost removed
	finds, inserts, dels, sets  int
	rangeItems                  int
	work                        core.WorkStats
	mallocs                     uint64
	mutations                   []loadgen.Op
}

// dictPass executes the operations alone, no codec and no log, timing
// every dictionary call and counting the §4.1 extra work and the heap
// allocations. Keys and values come from the tables, so nothing but the
// dictionaries allocates.
func (rp *replayer) dictPass() (dt dictTimes, err error) {
	sh, err := newShards(rp.w)
	if err != nil {
		return dt, err
	}
	defer sh.close()
	for _, d := range sh {
		d.EnableStats()
	}
	sh.prefill(rp.w, rp.tab)
	before := sh.workStats()
	clk := clockCost()
	dt.mutations = make([]loadgen.Op, 0, rp.ops)
	dt.mallocs = countMallocs(func() {
		for _, ops := range rp.batches {
			for _, op := range ops {
				key, val := rp.tab.Keys[op.Key], rp.tab.Vals[op.Key]
				d := sh.of(key)
				switch op.Verb {
				case loadgen.Get:
					t0 := time.Now()
					d.Find(key)
					dt.find += time.Since(t0) - clk
					dt.finds++
				case loadgen.Set:
					t0 := time.Now()
					ok := d.Insert(key, val)
					t1 := time.Now()
					if !ok {
						d.Delete(key)
						set(d, key, val)
					}
					dt.set += time.Since(t0) - 2*clk
					dt.insert += t1.Sub(t0) - clk
					dt.sets++
					dt.inserts++
					dt.mutations = append(dt.mutations, op)
				case loadgen.Del:
					t0 := time.Now()
					hit := d.Delete(key)
					dt.del += time.Since(t0) - clk
					dt.dels++
					if hit {
						dt.mutations = append(dt.mutations, op)
					}
				case loadgen.Range:
					t0 := time.Now()
					items := sh.rangeMerged(key, loadgen.RangeCount)
					dt.rng += time.Since(t0) - clk
					dt.rangeItems += len(items)
				}
			}
		}
	})
	after := sh.workStats()
	dt.work = core.WorkStats{
		AuxSkips:         after.AuxSkips - before.AuxSkips,
		BacklinkSteps:    after.BacklinkSteps - before.BacklinkSteps,
		ChainSteps:       after.ChainSteps - before.ChainSteps,
		DeleteCASRetries: after.DeleteCASRetries - before.DeleteCASRetries,
		InsertRetries:    after.InsertRetries - before.InsertRetries,
		DeleteRetries:    after.DeleteRetries - before.DeleteRetries,
	}
	return dt, nil
}

// protoMallocs parses every batch and encodes a reply for every command,
// with no dictionary behind it, and returns the heap allocations: the
// codec's own (key strings, SET payloads), since the buffers are reused.
func (rp *replayer) protoMallocs() (uint64, error) {
	var (
		codec = rp.codec()
		rd    = bytes.NewReader(nil)
		br    = bufio.NewReaderSize(rd, connBuf)
		req   = make([]byte, 0, connBuf)
		out   = make([]byte, 0, 64<<10)
		cmds  = make([]proto.Command, 0, rp.w.Depth)
		hit   = outcome{found: true}
		err   error
	)
	n := countMallocs(func() {
		for _, ops := range rp.batches {
			req = rp.request(req, ops)
			if cmds, err = parse(codec, br, rd, req, cmds[:0]); err != nil {
				return
			}
			out = out[:0]
			for i := range cmds {
				hit.value = cmds[i].Value
				out = appendReply(codec, out, &cmds[i], &hit)
			}
		}
	})
	return n, err
}
