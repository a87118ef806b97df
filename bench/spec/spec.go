// Package spec lists the benchmark's metrics by name, unit and direction.
// BENCHMARK.json at the repository root repeats these lists for the
// driver; a test keeps the two equal.
package spec

// Metric is one named number of the benchmark, as BENCHMARK.json lists it.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated relative worsening of the median
}

// EndToEnd are the metrics a user of valoisd sees, the same on every
// workload. fail_frac, the seventh, is the "failed"/"attempted" pair of
// the result line: it is 0 on a correct run, and a gated metric must
// never be 0.
//
// The bounds are what this host can resolve, not what one would wish for:
// ten runs with ten seeds spread (interquartile range over median) by up
// to 0.12 in ops_per_s, 0.17 in lat_p50_us, 0.16 in lat_p99_us and 0.14 in
// server_cpu_us_per_op on the noisiest workload, durable-hash-ebr, and by
// 0.04 to 0.10 on the others, because the CPUs themselves change speed
// (bench/README.md has the numbers). A bound below the spread would reject
// the benchmark's own reruns.
var EndToEnd = []Metric{
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p99_us", "us", "lower", 0.25},
	{"server_cpu_us_per_op", "us/op", "lower", 0.25},
	{"server_rss_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// WireLayer are the per-layer metrics taken from STATS deltas and process
// accounting over a measured window of the untraced wire run.
var WireLayer = []Metric{
	{Name: "server.batch_mean_ops", Unit: "ops", Better: "higher"},
	{Name: "server.bytes_in_per_op", Unit: "B/op", Better: "lower"},
	{Name: "server.bytes_out_per_op", Unit: "B/op", Better: "lower"},
	{Name: "server.get_hit_frac", Unit: "fraction", Better: "higher"},
	{Name: "server.delete_hit_frac", Unit: "fraction", Better: "higher"},
	{Name: "server.range_items_per_op", Unit: "items/op", Better: "higher"},
	{Name: "mm.allocs_per_op", Unit: "cells/op", Better: "lower"},
	{Name: "mm.reclaims_per_op", Unit: "cells/op", Better: "higher"},
	{Name: "mm.pops_per_op", Unit: "cells/op", Better: "higher"},
	{Name: "mm.grows", Unit: "count", Better: "lower"},
	{Name: "mm.steals_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "mm.live_end", Unit: "cells", Better: "lower"},
	{Name: "mm.limbo_end", Unit: "cells", Better: "lower"},
	{Name: "mm.epoch_advances", Unit: "count", Better: "higher"},
	{Name: "persist.records_per_mutation", Unit: "ratio", Better: "lower"},
	{Name: "persist.fsyncs_per_s", Unit: "1/s", Better: "lower"},
	{Name: "loadgen.cpu_us_per_op", Unit: "us/op", Better: "lower"},
	{Name: "loadgen.cpu_share", Unit: "fraction", Better: "lower"},
	{Name: "host.steal_frac", Unit: "fraction", Better: "lower"},
}

// TraceLayer are the per-layer metrics of the traced run: the workload's
// first operations replayed in-process, single goroutine, through each
// layer's exported functions with a span around every call into a layer.
var TraceLayer = []Metric{
	{Name: "proto.parse_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "proto.reply_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "proto.allocs_per_op", Unit: "allocs/op", Better: "lower"},
	{Name: "dict.find_ns", Unit: "ns", Better: "lower"},
	{Name: "dict.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "dict.delete_ns", Unit: "ns", Better: "lower"},
	{Name: "dict.set_ns", Unit: "ns", Better: "lower"},
	{Name: "dict.range_ns_per_item", Unit: "ns/item", Better: "lower"},
	{Name: "dict.allocs_per_op", Unit: "allocs/op", Better: "lower"},
	{Name: "core.hop_ns", Unit: "ns", Better: "lower"},
	{Name: "core.aux_skips_per_op", Unit: "1/op", Better: "lower"},
	{Name: "core.retries_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "core.backlink_chain_steps_per_kop", Unit: "1/kop", Better: "lower"},
	{Name: "mm.alloc_release_ns", Unit: "ns", Better: "lower"},
	{Name: "mm.saferead_release_ns", Unit: "ns", Better: "lower"},
	{Name: "mm.pin_unpin_ns", Unit: "ns", Better: "lower"},
	{Name: "persist.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "persist.append_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "persist.recover_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "server.inproc_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "loopback.ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "budget.loopback_share", Unit: "fraction", Better: "lower"},
	{Name: "budget.proto_share", Unit: "fraction", Better: "lower"},
	{Name: "budget.dict_share", Unit: "fraction", Better: "lower"},
	{Name: "budget.persist_share", Unit: "fraction", Better: "lower"},
	{Name: "budget.server_self_share", Unit: "fraction", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}
