package main

import (
	"slices"

	"valois/bench/loadgen"
)

// values maps metric names to measured values.
type values map[string]float64

// windowValues derives the timing metrics of one measured window.
func windowValues(w *window) values {
	return values{
		"ops_per_s":            w.opsPerS,
		"lat_p50_us":           float64(loadgen.Percentile(w.lat, 50)) / 1e3,
		"lat_p99_us":           float64(loadgen.Percentile(w.lat, 99)) / 1e3,
		"lat_p999_us":          float64(loadgen.Percentile(w.lat, 99.9)) / 1e3, // printed, not gated
		"server_cpu_us_per_op": float64(w.serverCPU.Microseconds()) / float64(w.ops),
	}
}

// roundValues derives the metrics a round has one value of.
func roundValues(r *round) values {
	return values{
		"server_rss_mb": float64(r.peakRSS) / 1e6,
		"setup_s":       r.setup.Seconds(),
	}
}

// summarize reduces a metric's samples to the value reported. A metric
// with one sample per round (memory, set-up time) reports the median. A
// timing metric, one sample per window, reports the quartile on its good
// side: the third best of nine. The noise on this host is one-sided, the
// CPUs only ever get slower than their best, so the good-side quartile
// repeats from run to run where the median follows however many windows
// fell into a slow phase. It still needs a quarter of the windows to
// agree, so one lucky window cannot set it.
func summarize(name string, samples []float64) float64 {
	if name == "server_rss_mb" || name == "setup_s" {
		return loadgen.Median(samples)
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	k := (len(s) - 1) / 4
	if name == "ops_per_s" { // the one timing metric where higher is better
		k = len(s) - 1 - k
	}
	return s[k]
}

// wireLayerValues derives the wire-side per-layer metrics of one round.
// A ratio whose base is 0 on this workload (no DELs, no AOF) reads 0.
func wireLayerValues(r *round) values {
	d := func(stat string) float64 { return float64(r.after[stat] - r.before[stat]) }
	per := func(n, base float64) float64 {
		if base == 0 {
			return 0
		}
		return n / base
	}
	c := r.counts
	ops := float64(c.Ops())
	serverCPU, loadgenCPU := float64(r.serverCPU.Microseconds()), float64(r.loadgenCPU.Microseconds())
	return values{
		"server.batch_mean_ops":        per(d("batched_ops"), d("batches")),
		"server.bytes_in_per_op":       per(d("bytes_in"), ops),
		"server.bytes_out_per_op":      per(d("bytes_out"), ops),
		"server.get_hit_frac":          per(float64(c.GetHits), float64(c.Gets)),
		"server.delete_hit_frac":       per(float64(c.DelHits), float64(c.Dels)),
		"server.range_items_per_op":    per(float64(c.RangeItems), float64(c.Ranges)),
		"mm.allocs_per_op":             per(d("mm_allocs"), ops),
		"mm.reclaims_per_op":           per(d("mm_reclaims"), ops),
		"mm.pops_per_op":               per(d("mm_pops"), ops),
		"mm.grows":                     d("mm_grows"),
		"mm.steals_per_kop":            per(d("mm_steals"), ops/1e3),
		"mm.live_end":                  float64(r.after["mm_live"]),
		"mm.limbo_end":                 float64(r.after["mm_limbo"]),
		"mm.epoch_advances":            d("mm_epoch"),
		"persist.records_per_mutation": per(d("aof_records"), float64(c.Sets+c.DelHits)),
		"persist.fsyncs_per_s":         per(d("aof_fsyncs"), r.elapsed.Seconds()),
		"loadgen.cpu_us_per_op":        per(loadgenCPU, ops),
		"loadgen.cpu_share":            per(loadgenCPU, loadgenCPU+serverCPU),
		"host.steal_frac":              r.stealFrac,
	}
}
