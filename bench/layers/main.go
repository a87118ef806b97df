// Command layers is the benchmark's traced run. It replays the first
// operations of a workload's seeded stream in this process, on one
// goroutine, through each layer's exported functions (proto, dict, core,
// mm, persist, server) with a span around every call into a layer, and
// prints the per-layer metrics of bench/spec.TraceLayer.
//
// It is the only part of the benchmark that imports valois/internal, and
// it is a separate binary so that the end-to-end run neither links nor
// depends on anything a change under test can touch. bench/main.go runs
// it; the last line of its standard output is one JSON object with the
// keys values, attempted and failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"valois/bench/loadgen"
	"valois/internal/mm"
)

// The replay runs in pairs, once without spans and once with, for at
// least minPairs pairs and then until pairBudget is spent, and the fastest
// pass of each kind is compared. Neighbours on this host slow a
// half-second pass by 10 % or more every so often; the minimum over
// several passes drops that and keeps the tracing overhead. The same goes
// for the in-process server and the loopback responder, run wallRuns times.
const (
	minPairs   = 3
	maxPairs   = 12
	pairBudget = 6 * time.Second
	wallRuns   = 3
)

func main() {
	var (
		name = flag.String("workload", "", "workload name")
		seed = flag.Int64("seed", 1, "stream seed")
		out  = flag.String("out", "bench/out", "directory for the trace file and temporary data")
	)
	flag.Parse()
	values, attempted, err := run(*name, *seed, *out)
	failed := 0
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		failed = 1
	}
	line, _ := json.Marshal(map[string]any{"values": values, "attempted": attempted, "failed": failed})
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

// fastest folds d into a running minimum whose zero value means none yet.
func fastest(best, d time.Duration) time.Duration {
	if best == 0 || d < best {
		return d
	}
	return best
}

func run(name string, seed int64, out string) (v map[string]float64, attempted int, err error) {
	w, err := loadgen.Lookup(name)
	if err != nil {
		return nil, 0, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(out, "tmp"), "layers-")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(tmp)
	rp := newReplayer(w, seed, tmp)
	ops := float64(rp.ops)
	v = map[string]float64{}

	// Replay with and without spans.
	var (
		plain, traced time.Duration
		rec           *Recorder
		replies       [][]byte
	)
	began := time.Now()
	for i := 0; i < minPairs || (i < maxPairs && time.Since(began) < pairBudget); i++ {
		r := NewRecorder(5 * len(rp.batches))
		runtime.GC() // each pass starts from the same heap
		d, _, err := rp.pass(r, false, false)
		if err != nil {
			return v, attempted, fmt.Errorf("replay: %w", err)
		}
		attempted += rp.ops
		plain = fastest(plain, d)
		r = NewRecorder(5 * len(rp.batches))
		runtime.GC()
		d, rs, err := rp.pass(r, true, i == 0)
		if err != nil {
			return v, attempted, fmt.Errorf("traced replay: %w", err)
		}
		attempted += rp.ops
		if traced == 0 || d < traced {
			traced, rec = d, r
		}
		if i == 0 {
			replies = rs
		}
	}
	self := SelfByName(rec.Spans)
	protoNs := float64(self["proto.parse"]+self["proto.reply"]) / ops
	dictNs := float64(self["dict.exec"]) / ops
	persistShareNs := float64(self["persist.append"]) / ops
	v["proto.parse_ns_per_op"] = float64(self["proto.parse"]) / ops
	v["proto.reply_ns_per_op"] = float64(self["proto.reply"]) / ops
	v["trace.overhead_frac"] = float64(traced-plain) / float64(plain)
	v["trace.spans"] = float64(len(rec.Spans))
	if err := WriteTrace(filepath.Join(out, "trace-"+w.Name+".json"), w.Name, seed, rec.Spans); err != nil {
		return v, attempted, err
	}

	// The dictionaries alone, call by call, and the codec alone.
	dt, err := rp.dictPass()
	if err != nil {
		return v, attempted, fmt.Errorf("dictionary pass: %w", err)
	}
	attempted += rp.ops
	per := func(total time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n)
	}
	v["dict.find_ns"] = per(dt.find, dt.finds)
	v["dict.insert_ns"] = per(dt.insert, dt.inserts)
	v["dict.delete_ns"] = per(dt.del, dt.dels)
	v["dict.set_ns"] = per(dt.set, dt.sets)
	v["dict.range_ns_per_item"] = per(dt.rng, dt.rangeItems)
	v["dict.allocs_per_op"] = float64(dt.mallocs) / ops
	v["core.aux_skips_per_op"] = float64(dt.work.AuxSkips) / ops
	v["core.retries_per_kop"] = float64(dt.work.InsertRetries+dt.work.DeleteRetries+dt.work.DeleteCASRetries) / ops * 1e3
	v["core.backlink_chain_steps_per_kop"] = float64(dt.work.BacklinkSteps+dt.work.ChainSteps) / ops * 1e3
	protoMallocs, err := rp.protoMallocs()
	if err != nil {
		return v, attempted, fmt.Errorf("codec pass: %w", err)
	}
	v["proto.allocs_per_op"] = float64(protoMallocs) / ops

	// The layers below the dictionaries, bare.
	mode, _ := mm.ParseMode(w.Mode)
	v["core.hop_ns"] = hopNs(mode)
	v["mm.alloc_release_ns"], v["mm.saferead_release_ns"], v["mm.pin_unpin_ns"] = mmNs(mode)
	if v["persist.append_ns_per_record"], v["persist.recover_ns_per_record"], v["persist.bytes_per_record"], err = persistNs(tmp, rp.tab, dt.mutations); err != nil {
		return v, attempted, fmt.Errorf("persist: %w", err)
	}

	// The whole server in-process, and the socket alone; both check
	// every reply against the oracle model, so the replay's own replies,
	// which the responder serves, are checked too.
	var inproc, loopback time.Duration
	for i := 0; i < wallRuns; i++ {
		d, err := rp.inprocWall()
		if err != nil {
			return v, attempted, fmt.Errorf("in-process server: %w", err)
		}
		inproc = fastest(inproc, d)
		if d, err = rp.loopbackWall(replies); err != nil {
			return v, attempted, fmt.Errorf("loopback responder serving the replay's replies: %w", err)
		}
		loopback = fastest(loopback, d)
		attempted += 2 * rp.ops
	}
	v["server.inproc_ns_per_op"] = float64(inproc) / ops
	v["loopback.ns_per_op"] = float64(loopback) / ops
	for name, share := range Budget(v["server.inproc_ns_per_op"], v["loopback.ns_per_op"], protoNs, dictNs, persistShareNs) {
		v[name] = share
	}
	return v, attempted, nil
}
