// Package loadgen is the benchmark's load generator: the four workloads,
// their seeded operation streams, pre-encoded request tables, a minimal
// reply scanner and the oracle model the replies are checked against.
//
// It imports nothing from valois/internal on purpose. Generator cost is
// then identical on a parent commit and on the change under test, and a
// change cannot make the benchmark faster by making the generator faster.
package loadgen

import "fmt"

// RangeCount is the item budget of every RANGE the scan workload sends.
const RangeCount = 32

// Workload is one traffic mix against one valoisd configuration.
type Workload struct {
	Name string
	Why  string // one line: which layers the workload stresses

	// Backend and Mode are what the server runs. DefaultFlags means they
	// are valoisd's defaults and no -backend/-mode flag is passed.
	Backend, Mode string
	DefaultFlags  bool
	Durable       bool // -aof -fsync everysec on a temporary data dir

	Text  bool // text protocol; otherwise RESP
	Depth int  // commands per pipelined batch

	ReadPct, SetPct int     // the rest are DELs
	Scan            bool    // reads are RANGE(RangeCount) instead of GET
	ZipfS           float64 // 0 draws keys uniformly

	Keys, Prefill int // key space; Prefill of them (the even ones) are bound at start
	ValueSize     int

	OracleOps int // ops connection 0 replays alone against the model
	TraceOps  int // ops the in-process traced replay covers
}

// Workloads is the benchmark's fixed workload table. Names are final:
// BENCHMARK.json and BASELINE.json refer to them.
var Workloads = []Workload{
	{
		Name:    "pipe-hash-gc",
		Why:     "O(1) dictionary and no-op mm, so proto, the batch executor and loopback do most of the work; traversal changes must not show here",
		Backend: "hash", Mode: "gc",
		Depth: 48, ReadPct: 50, SetPct: 25,
		Keys: 16384, Prefill: 8192, ValueSize: 64,
		OracleOps: 20000, TraceOps: 200000,
	},
	{
		Name:    "read-skiplist-ebr",
		Why:     "same wire shape, but two thirds of server time is skiplist descent under one epoch pin; per-hop and core changes show here only",
		Backend: "skiplist", Mode: "ebr",
		Depth: 48, ReadPct: 90, SetPct: 5,
		Keys: 65536, Prefill: 32768, ValueSize: 64,
		OracleOps: 20000, TraceOps: 200000,
	},
	{
		Name:    "durable-hash-ebr",
		Why:     "write-heavy zipfian overwrites on the text protocol with the AOF on: mm alloc/limbo/free-list, persist append and RSS show here",
		Backend: "hash", Mode: "ebr", Durable: true,
		Text: true, Depth: 16, ReadPct: 20, SetPct: 70, ZipfS: 1.2,
		Keys: 65536, Prefill: 32768, ValueSize: 256,
		OracleOps: 20000, TraceOps: 200000,
	},
	{
		Name:    "scan-skiplist-gc",
		Why:     "range scans beside point writes on the default configuration: level-0 cursor hops in gc mode, the 16-shard collect-and-sort, large replies",
		Backend: "skiplist", Mode: "gc", DefaultFlags: true,
		Depth: 8, ReadPct: 50, SetPct: 25, Scan: true,
		Keys: 65536, Prefill: 32768, ValueSize: 64,
		OracleOps: 4000, TraceOps: 8000,
	},
}

// Lookup returns the workload with the given name.
func Lookup(name string) (*Workload, error) {
	for i := range Workloads {
		if Workloads[i].Name == name {
			return &Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ServerArgs returns the valoisd flags for the workload, listening on an
// ephemeral loopback port. dataDir is used only by a durable workload.
func (w *Workload) ServerArgs(dataDir string) []string {
	args := []string{"-addr", "127.0.0.1:0"}
	if !w.DefaultFlags {
		args = append(args, "-backend", w.Backend, "-mode", w.Mode)
	}
	if w.Durable {
		args = append(args, "-aof", "-data-dir", dataDir, "-fsync", "everysec")
	}
	return args
}

// Prefilled reports whether key index k is bound before traffic starts.
// Even indices are, so half of every key range hits whatever the key
// distribution is.
func (w *Workload) Prefilled(k uint32) bool {
	return k%2 == 0 && int(k/2) < w.Prefill
}
