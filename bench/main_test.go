package main

import (
	"go/parser"
	"go/token"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"valois/bench/loadgen"
	"valois/bench/spec"
)

// The end-to-end path must not link anything a change under test can
// touch: only bench/layers may import the repository's packages.
func TestEndToEndPathImportsNothingOfTheRepository(t *testing.T) {
	for _, dir := range []string{".", "loadgen", "spec"} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			for name, f := range pkg.Files {
				if strings.HasSuffix(name, "_test.go") {
					continue
				}
				for _, imp := range f.Imports {
					path, _ := strconv.Unquote(imp.Path.Value)
					if strings.HasPrefix(path, "valois") && !strings.HasPrefix(path, "valois/bench/") {
						t.Errorf("%s imports %s", name, path)
					}
				}
			}
		}
	}
}

func TestMetricsOfARound(t *testing.T) {
	w := window{ops: 1000, opsPerS: 500, lat: []int64{1000, 2000, 3000, 4000}, serverCPU: 4 * time.Millisecond}
	r := round{
		setup:      250 * time.Millisecond,
		windows:    []window{w},
		elapsed:    2 * time.Second,
		counts:     loadgen.Counts{Gets: 600, Sets: 300, Dels: 100, GetHits: 300, DelHits: 50},
		serverCPU:  4 * time.Millisecond,
		loadgenCPU: 1 * time.Millisecond,
		peakRSS:    25e6,
		before:     map[string]int64{"batches": 10, "batched_ops": 100, "bytes_in": 0, "mm_allocs": 5, "aof_records": 0},
		after:      map[string]int64{"batches": 30, "batched_ops": 1060, "bytes_in": 50000, "mm_allocs": 2005, "aof_records": 350, "mm_live": 77},
	}
	e := windowValues(&w)
	for name, v := range roundValues(&r) {
		e[name] = v
	}
	for name, want := range map[string]float64{
		"ops_per_s": 500, "lat_p50_us": 2, "lat_p99_us": 4, "server_cpu_us_per_op": 4, "server_rss_mb": 25, "setup_s": 0.25,
	} {
		if got := e[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for _, m := range spec.EndToEnd {
		if _, ok := e[m.Name]; !ok {
			t.Errorf("end-to-end metric %s not produced", m.Name)
		}
	}
	l := wireLayerValues(&r)
	for name, want := range map[string]float64{
		"server.batch_mean_ops": 48, "server.bytes_in_per_op": 50, "server.get_hit_frac": 0.5, "server.delete_hit_frac": 0.5,
		"server.range_items_per_op": 0, "mm.allocs_per_op": 2, "mm.live_end": 77, "persist.records_per_mutation": 1,
		"loadgen.cpu_us_per_op": 1, "loadgen.cpu_share": 0.2,
	} {
		if got := l[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for _, m := range spec.WireLayer {
		if _, ok := l[m.Name]; !ok {
			t.Errorf("per-layer metric %s not produced", m.Name)
		}
	}
}

// Nine windows, three rounds: timing metrics report the third best
// window, memory and set-up time the median round.
func TestSummarize(t *testing.T) {
	nine := []float64{5, 9, 1, 7, 3, 8, 2, 6, 4}
	for name, want := range map[string]float64{"ops_per_s": 7, "lat_p50_us": 3, "lat_p99_us": 3, "server_cpu_us_per_op": 3} {
		if got := summarize(name, nine); got != want {
			t.Errorf("%s over nine windows = %v, want %v", name, got, want)
		}
	}
	for _, name := range []string{"server_rss_mb", "setup_s"} {
		if got := summarize(name, []float64{30, 10, 20}); got != 20 {
			t.Errorf("%s over three rounds = %v, want the median", name, got)
		}
	}
	if got := summarize("ops_per_s", []float64{4}); got != 4 {
		t.Errorf("one window = %v", got)
	}
}

func TestAccountingCountsEveryDifferenceAsFailedOps(t *testing.T) {
	w := &loadgen.Workloads[2]
	c := loadgen.Counts{Gets: 10, Sets: 20, Dels: 5, GetHits: 4, DelHits: 2}
	before := map[string]int64{"cmd_get": 100}
	after := map[string]int64{"cmd_get": 110, "cmd_set": 20, "cmd_delete": 5, "get_hits": 4, "delete_hits": 2, "aof_records": 22}
	if failed, err := checkAccounting(w, c, before, after); failed != 0 || err != nil {
		t.Fatalf("matching accounts: %d failed, %v", failed, err)
	}
	after["aof_records"] = 21 // one acknowledged mutation never reached the log
	after["get_hits"] = 6
	if failed, err := checkAccounting(w, c, before, after); failed != 3 || err == nil {
		t.Fatalf("three differences: %d failed, %v", failed, err)
	}
}
