// Command bench is the repository's benchmark. It builds ./cmd/valoisd
// from the checkout it runs in, starts it as a child on 127.0.0.1:0 and
// drives it over loopback from this one process with two pipelining
// connections, a closed loop, checking every reply it can.
//
// Run it through bench/run.sh from anywhere; it works from the checkout
// root. One invocation measures one or all workloads:
//
//	bench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-rounds R] [-trace 0|1|both] [-aa]
//
// With -trace 0 it measures the end-to-end metrics on the real valoisd,
// untraced; with -trace 1 the per-layer metrics, from STATS deltas of a
// wire window and from bench/layers, the in-process traced replay. The
// last line of standard output is one JSON object per workload with the
// keys correct, attempted, failed and metrics. See bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"valois/bench/loadgen"
	"valois/bench/spec"
)

// env is where the benchmark's files live, all inside the checkout.
type env struct {
	buildDir string // binaries (and, through run.sh, the go build cache)
	outDir   string // trace files and A/A results
	tmpDir   string // temporary data dirs, under outDir
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed of the operation streams")
		seconds  = flag.Int("seconds", 18, "measured seconds per workload run, split evenly over the rounds")
		rounds   = flag.Int("rounds", 3, "fresh-server rounds per end-to-end run, each with 3 measured windows")
		trace    = flag.String("trace", "both", "0: end-to-end metrics, 1: per-layer metrics, both")
		aa       = flag.Bool("aa", false, "run everything twice on the same binaries and compare the two sets against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *rounds < 1 || (*trace != "0" && *trace != "1" && *trace != "both") {
		flag.Usage()
		return 2
	}
	var ws []*loadgen.Workload
	for i := range loadgen.Workloads {
		if w := &loadgen.Workloads[i]; *workload == "all" || *workload == w.Name {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	e, err := prepare(ctx, *trace != "0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// Temporary data dirs go on every way out, an interrupt included: ctx
	// kills the children first.
	defer os.RemoveAll(e.tmpDir)

	cfg := config{seed: *seed, seconds: *seconds, rounds: *rounds, e2e: *trace != "1", layers: *trace != "0"}
	if *aa {
		return runAA(ctx, e, ws, cfg)
	}
	ok := true
	for _, w := range ws {
		res := measure(ctx, e, w, cfg)
		res.print(os.Stdout)
		ok = ok && res.correct()
		// Every sample behind the reported values, for whoever wants to
		// look at a run more closely than its result line allows.
		if b, err := json.MarshalIndent(res, "", " "); err == nil {
			os.WriteFile(filepath.Join(e.outDir, "result-"+w.Name+".json"), append(b, '\n'), 0o644)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// extraSetups is how many set-ups beyond the rounds' own a run may add.
const extraSetups = 6

// config is how much to measure.
type config struct {
	seed        int64
	seconds     int
	rounds      int
	e2e, layers bool
}

// prepare locates the checkout and builds the binaries under test.
func prepare(ctx context.Context, layers bool) (env, error) {
	root, err := os.Getwd()
	if err != nil {
		return env{}, err
	}
	e := env{buildDir: filepath.Join(root, ".bench_build"), outDir: filepath.Join(root, "bench", "out")}
	e.tmpDir = filepath.Join(e.outDir, "tmp")
	for _, dir := range []string{e.buildDir, e.tmpDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return env{}, err
		}
	}
	if err := goBuild(ctx, root, filepath.Join(e.buildDir, "valoisd"), "./cmd/valoisd"); err != nil {
		return env{}, err
	}
	if layers {
		if err := goBuild(ctx, filepath.Join(root, "bench"), filepath.Join(e.buildDir, "layers"), "./layers"); err != nil {
			return env{}, err
		}
	}
	return e, nil
}

func goBuild(ctx context.Context, dir, out, pkg string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, pkg)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %s in %s: %w", pkg, dir, err)
	}
	return nil
}

// result is everything one invocation measured on one workload.
type result struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Rounds    int                  `json:"rounds"`
	WindowS   float64              `json:"window_s"`
	Samples   map[string][]float64 `json:"samples,omitempty"` // end-to-end: one value per window, round or set-up
	Batches   []int                `json:"batches_per_window,omitempty"`
	Values    values               `json:"values"` // the reported end-to-end and per-layer values
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`

	e2e, layers bool
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Errors) == 0 && r.Attempted > 0 }

func (r *result) fail(err error, failed int64) {
	r.Errors = append(r.Errors, err.Error())
	r.Failed += max(failed, 1)
	fmt.Fprintf(os.Stderr, "bench: %s: %v\n", r.Workload, err)
}

// measure runs one workload: the end-to-end rounds, then the per-layer
// wire window and the traced replay, as cfg asks.
func measure(ctx context.Context, e env, w *loadgen.Workload, cfg config) *result {
	res := &result{Workload: w.Name, Seed: cfg.seed, Values: values{}, Samples: map[string][]float64{}, e2e: cfg.e2e, layers: cfg.layers}
	tab := loadgen.NewTables(w)
	if cfg.e2e {
		res.Rounds = cfg.rounds
		window := time.Duration(cfg.seconds) * time.Second / time.Duration(cfg.rounds*windowsPerRound)
		res.WindowS = window.Seconds()
		for i := 0; i < cfg.rounds && ctx.Err() == nil; i++ {
			fmt.Fprintf(os.Stderr, "bench: %s: round %d/%d\n", w.Name, i+1, cfg.rounds)
			rd, err := runRound(ctx, e.valoisd(), e.tmpDir, w, tab, roundSeed(cfg.seed, i), window)
			res.Attempted += rd.attempted
			if err != nil {
				res.fail(err, rd.failed)
				continue
			}
			for name, v := range roundValues(&rd) {
				res.Samples[name] = append(res.Samples[name], v)
			}
			for i := range rd.windows {
				for name, v := range windowValues(&rd.windows[i]) {
					res.Samples[name] = append(res.Samples[name], v)
				}
				res.Batches = append(res.Batches, len(rd.windows[i].lat))
			}
		}
		// Three set-ups are few for a median of something as short as a
		// process start, so set up again, up to extraSetups times within
		// about a second, and throw those servers away.
		if med := loadgen.Median(res.Samples["setup_s"]); med > 0 {
			for n := min(extraSetups, int(1/med)); n > 0 && ctx.Err() == nil; n-- {
				in, took, failed, err := setUp(ctx, e.valoisd(), e.tmpDir, w, tab)
				in.close()
				res.Attempted += in.attempted
				if err != nil {
					res.fail(fmt.Errorf("extra set-up: %w", err), failed)
					break
				}
				res.Samples["setup_s"] = append(res.Samples["setup_s"], took.Seconds())
			}
		}
		for name, s := range res.Samples {
			res.Values[name] = summarize(name, s)
		}
	}
	if cfg.layers && ctx.Err() == nil {
		// The wire window of a traced run is short: its STATS deltas are
		// ratios per operation and do not need a long window. The rest of
		// the run's time goes to the in-process replay.
		window := time.Duration(cfg.seconds) * time.Second / (3 * windowsPerRound)
		fmt.Fprintf(os.Stderr, "bench: %s: wire window for STATS deltas\n", w.Name)
		rd, err := runRound(ctx, e.valoisd(), e.tmpDir, w, tab, roundSeed(cfg.seed, 0), window)
		res.Attempted += rd.attempted
		if err != nil {
			res.fail(err, rd.failed)
		} else {
			for name, v := range wireLayerValues(&rd) {
				res.Values[name] = v
			}
		}
		fmt.Fprintf(os.Stderr, "bench: %s: traced in-process replay\n", w.Name)
		tr, err := runLayers(ctx, e, w, cfg.seed)
		res.Attempted += tr.Attempted
		if err != nil {
			res.fail(err, tr.Failed)
		}
		for name, v := range tr.Values {
			res.Values[name] = v
		}
	}
	if err := ctx.Err(); err != nil {
		res.fail(err, 0)
	}
	return res
}

// roundSeed derives the stream seed of round i, so rounds see different
// traffic and one -seed still fixes all of it. Round 0's stream is the one
// the traced replay follows.
func roundSeed(seed int64, i int) int64 { return seed*16 + int64(i) }

func (e env) valoisd() string { return filepath.Join(e.buildDir, "valoisd") }

// layersResult is what bench/layers prints as its last line.
type layersResult struct {
	Values    values `json:"values"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
}

// runLayers runs the traced replay binary and reads its result line.
func runLayers(ctx context.Context, e env, w *loadgen.Workload, seed int64) (layersResult, error) {
	cmd := exec.CommandContext(ctx, filepath.Join(e.buildDir, "layers"),
		"-workload", w.Name, "-seed", fmt.Sprint(roundSeed(seed, 0)), "-out", e.outDir)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = time.Second
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var tr layersResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		return tr, fmt.Errorf("layers: no result line (%v): %v", runErr, err)
	}
	if runErr != nil {
		return tr, fmt.Errorf("layers: %w", runErr)
	}
	return tr, nil
}

// print writes the human-readable tables and then the result line the
// driver reads.
func (r *result) print(out *os.File) {
	w, _ := loadgen.Lookup(r.Workload)
	proto := "resp"
	if w.Text {
		proto = "text"
	}
	fmt.Fprintf(out, "\n== %s: seed %d, %d conns x depth %d, %s ==\n   %s\n", r.Workload, r.Seed, conns, w.Depth, proto, w.Why)
	if r.e2e {
		fmt.Fprintf(out, "end-to-end, untraced: %d rounds, each a fresh valoisd and %d windows of %.1f s (batches per window: %v)\n", r.Rounds, windowsPerRound, r.WindowS, r.Batches)
		fmt.Fprintln(out, "reported: good-side quartile over the windows; median over the rounds for server_rss_mb, over the set-ups for setup_s")
		fmt.Fprintf(out, "  %-24s %14s %14s %14s %3s  %-6s %s\n", "metric", "reported", "min", "max", "n", "unit", "bound")
		row := func(m spec.Metric, bound string) {
			s := r.Samples[m.Name]
			if len(s) == 0 {
				return
			}
			fmt.Fprintf(out, "  %-24s %14.4f %14.4f %14.4f %3d  %-6s %s\n", m.Name, r.Values[m.Name], slices.Min(s), slices.Max(s), len(s), m.Unit, bound)
		}
		for _, m := range spec.EndToEnd {
			row(m, fmt.Sprintf("%.2f", m.Bound))
		}
		row(spec.Metric{Name: "lat_p999_us", Unit: "us"}, "not gated")
		fmt.Fprintf(out, "  %-24s %14.6f %44s  (%d of %d operations)\n", "fail_frac", float64(r.Failed)/float64(max(r.Attempted, 1)), "", r.Failed, r.Attempted)
	}
	if r.layers {
		fmt.Fprintln(out, "per layer: wire window (STATS deltas), then the traced in-process replay")
		for _, m := range append(append([]spec.Metric{}, spec.WireLayer...), spec.TraceLayer...) {
			if v, ok := r.Values[m.Name]; ok {
				fmt.Fprintf(out, "  %-36s %16.4f  %s\n", m.Name, v, m.Unit)
			}
		}
		r.printBudget(out)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(out, "FAILED: %s\n", e)
	}
	out.Write(append(r.line(), '\n'))
}

// printBudget shows where one wire operation's in-process time goes. The
// shares are fractions of server.inproc_ns_per_op and sum to 1;
// server_self is what is left after the parts measured in isolation:
// dispatch, stats, scheduling and whatever is still unexplained.
func (r *result) printBudget(out *os.File) {
	total, ok := r.Values["server.inproc_ns_per_op"]
	if !ok {
		return
	}
	fmt.Fprintf(out, "budget of one in-process wire op (%.0f ns, one connection):\n", total)
	sum := 0.0
	for _, part := range []string{"loopback", "proto", "dict", "persist", "server_self"} {
		share := r.Values["budget."+part+"_share"]
		sum += share
		fmt.Fprintf(out, "  %-12s %6.1f%%  %8.0f ns\n", part, 100*share, share*total)
	}
	fmt.Fprintf(out, "  %-12s %6.1f%%\n", "sum", 100*sum)
}

// line renders the driver's result line: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one, or both.
func (r *result) line() []byte {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	add := func(ms []spec.Metric) {
		for _, m := range ms {
			if v, ok := r.Values[m.Name]; ok {
				metrics[m.Name] = mv{v, m.Unit}
			}
		}
	}
	if r.e2e {
		add(spec.EndToEnd)
	}
	if r.layers {
		add(spec.WireLayer)
		add(spec.TraceLayer)
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), max(r.Attempted, 1), r.Failed, metrics})
	if err != nil {
		panic(err) // only NaN or Inf can do this, and that is a bug here
	}
	return b
}

// hostInfo identifies the machine a result set was taken on.
func hostInfo() map[string]any {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     strings.TrimSpace(string(kernel)),
	}
}
