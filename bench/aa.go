package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"valois/bench/loadgen"
	"valois/bench/spec"
)

// exactCounts are per-layer metrics counted in the single-goroutine
// replay. They are properties of the code and the seed, not of the run,
// so two runs of the same binaries must agree on every digit.
var exactCounts = []string{"core.aux_skips_per_op", "proto.allocs_per_op", "dict.allocs_per_op", "persist.bytes_per_record"}

// aaDiff is one metric's disagreement between the two sets.
type aaDiff struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	RelDiff  float64 `json:"rel_diff"` // (b-a)/a
	Bound    float64 `json:"bound"`
	Breach   bool    `json:"breach"`
}

// runAA measures every workload twice with the same binaries and seed and
// reports, for each workload and end-to-end metric, how far the second
// set's median is from the first against the metric's bound. A benchmark
// that cannot agree with itself within its bounds cannot judge a change.
// The two sets and their differences go to bench/out/aa.json, the file
// bench/BASELINE.json is a committed copy of.
func runAA(ctx context.Context, e env, ws []*loadgen.Workload, cfg config) int {
	var sets [2][]*result
	for s := range sets {
		for _, w := range ws {
			fmt.Fprintf(os.Stderr, "bench: A/A set %d: %s\n", s+1, w.Name)
			res := measure(ctx, e, w, cfg)
			res.print(os.Stdout)
			sets[s] = append(sets[s], res)
		}
	}
	ok := true
	var diffs []aaDiff
	fmt.Printf("\n== A/A: set 2 against set 1, same binaries, seed %d ==\n", cfg.seed)
	fmt.Printf("  %-20s %-24s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "rel diff", "bound")
	for i, w := range ws {
		a, b := sets[0][i], sets[1][i]
		ok = ok && a.correct() && b.correct()
		compare := func(name string, bound float64) {
			va, oka := a.Values[name]
			vb, okb := b.Values[name]
			if !oka || !okb {
				return
			}
			d := aaDiff{Workload: w.Name, Metric: name, A: va, B: vb, Bound: bound}
			if va != 0 {
				d.RelDiff = (vb - va) / va
			} else if vb != 0 {
				d.RelDiff = math.Inf(1)
			}
			d.Breach = math.Abs(d.RelDiff) > bound
			mark := ""
			if d.Breach {
				mark, ok = "  BREACH", false
			}
			fmt.Printf("  %-20s %-24s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", w.Name, name, va, vb, 100*d.RelDiff, 100*bound, mark)
			if math.IsInf(d.RelDiff, 0) {
				d.RelDiff = 0 // JSON has no infinity; Breach carries the verdict
			}
			diffs = append(diffs, d)
		}
		if cfg.e2e {
			for _, m := range spec.EndToEnd {
				compare(m.Name, m.Bound)
			}
		}
		if cfg.layers {
			for _, name := range exactCounts {
				compare(name, 0)
			}
		}
	}
	doc := map[string]any{
		"host": hostInfo(), "seed": cfg.seed, "seconds": cfg.seconds, "rounds": cfg.rounds,
		"claim": nil, "sets": sets, "diffs": diffs,
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(e.outDir, "aa.json"), append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing aa.json:", err)
		return 1
	}
	if !ok {
		fmt.Println("A/A: FAILED, a set was incorrect or two sets disagree beyond a bound")
		return 1
	}
	fmt.Println("A/A: every end-to-end median agrees within its bound; exact counts are identical")
	return 0
}
