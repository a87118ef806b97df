// Command lfbench regenerates the paper-reproduction experiment tables
// E1–E9, E11, A1–A3 and persist (see DESIGN.md for the per-claim index and
// EXPERIMENTS.md for the recorded results, which are
// `lfbench -format markdown` output).
//
// Usage:
//
//	lfbench [-e E1,E3] [-d 300ms] [-quick] [-seed 1] [-format text|csv|markdown]
//
// With no -e flag every experiment runs in order. These are in-process
// experiments on the paper's claims; the serving path is measured by the
// repository's benchmark (bash bench/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"valois/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lfbench", flag.ContinueOnError)
	var (
		which  = fs.String("e", "", "comma-separated experiment IDs (default: all)")
		dur    = fs.Duration("d", 300*time.Millisecond, "duration per measured point")
		quick  = fs.Bool("quick", false, "trim sweeps for a fast smoke run")
		seed   = fs.Int64("seed", 1, "workload seed")
		format = fs.String("format", "text", "output format: text, csv, or markdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := experiments.Options{Duration: *dur, Quick: *quick, Seed: *seed}

	var runners []experiments.Runner
	if *which == "" {
		runners = experiments.All()
	} else {
		for _, id := range strings.Split(*which, ",") {
			r, ok := experiments.Lookup(strings.TrimSpace(id))
			if !ok {
				var valid []string
				for _, r := range experiments.All() {
					valid = append(valid, r.ID)
				}
				return fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(valid, ", "))
			}
			runners = append(runners, r)
		}
	}

	if *format == "text" {
		fmt.Printf("lock-free linked lists (Valois, PODC 1995) — reproduction suite\n")
		fmt.Printf("host: %s/%s, %d CPUs, GOMAXPROCS=%d, %s per point\n\n",
			runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), *dur)
	}
	for _, r := range runners {
		start := time.Now()
		table := r.Run(opts)
		switch *format {
		case "text":
			fmt.Println(table.Format())
			fmt.Printf("(%s in %.1fs)\n\n", r.ID, time.Since(start).Seconds())
		case "csv":
			fmt.Print(table.CSV())
			fmt.Println()
		case "markdown":
			fmt.Println(table.Markdown())
		default:
			return fmt.Errorf("unknown format %q (text, csv, markdown)", *format)
		}
	}
	return nil
}
