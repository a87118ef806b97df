// Command lfstress hammers one of the lock-free structures with a mixed
// concurrent workload for a configurable time and then verifies every
// checkable invariant: structural soundness (auxiliary-node alternation,
// sortedness, tree ordering), population conservation, and — under the RC
// manager — exact memory reclamation.
//
// Usage:
//
//	lfstress [-s list|hash|skiplist|bst] [-m gc|rc] [-p 8] [-d 5s] [-k 256]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"valois/internal/bst"
	"valois/internal/dict"
	"valois/internal/mm"
	"valois/internal/skiplist"
	"valois/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lfstress:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lfstress", flag.ContinueOnError)
	var (
		structure = fs.String("s", "list", "structure: list, hash, skiplist, bst")
		modeName  = fs.String("m", "rc", "memory mode: gc, rc, or ebr")
		procs     = fs.Int("p", 8, "goroutines")
		dur       = fs.Duration("d", 5*time.Second, "stress duration")
		keys      = fs.Int("k", 256, "key space")
		seed      = fs.Int64("seed", time.Now().UnixNano(), "workload seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, ok := mm.ParseMode(*modeName)
	if !ok {
		return fmt.Errorf("unknown mode %q", *modeName)
	}

	cfg := workload.Config{
		Goroutines: *procs,
		Duration:   *dur,
		Mix:        workload.Mixed(),
		KeySpace:   *keys,
		Prefill:    *keys / 2,
		Seed:       *seed,
	}

	fmt.Printf("stressing %s/%s: p=%d, keys=%d, %s (seed %d)\n",
		*structure, mode, *procs, *keys, *dur, *seed)

	var (
		res   workload.Result
		check func() error
	)
	switch *structure {
	case "list":
		s := dict.NewSortedList[int, int](mode)
		workload.Prefill(cfg, s)
		res = workload.Run(cfg, s)
		check = func() error { return checkList(s, mode, cfg, res) }
	case "hash":
		h := dict.NewHash[int, int](*keys/8+1, mode, dict.HashInt)
		workload.Prefill(cfg, h)
		res = workload.Run(cfg, h)
		check = func() error { return checkPopulation(h, cfg, res) }
	case "skiplist":
		s := skiplist.New[int, int](mode)
		workload.Prefill(cfg, s)
		res = workload.Run(cfg, s)
		check = func() error { return checkSkipList(s, cfg, res) }
	case "bst":
		tr := bst.New[int, int](mode)
		workload.Prefill(cfg, tr)
		res = workload.Run(cfg, tr)
		check = func() error { return checkTree(tr, cfg, res) }
	default:
		return fmt.Errorf("unknown structure %q", *structure)
	}

	fmt.Printf("done: %d ops (%.0f ops/s), %d finds, %d inserts, %d deletes\n",
		res.Ops, res.OpsPerSec(), res.Finds, res.Inserts, res.Deletes)
	if err := check(); err != nil {
		return err
	}
	fmt.Println("all invariants hold")
	return nil
}

func expectPopulation(cfg workload.Config, res workload.Result) int {
	return cfg.Prefill + int(res.Inserts) - int(res.Deletes)
}

func checkPopulation(d dict.Dictionary[int, int], cfg workload.Config, res workload.Result) error {
	got := 0
	for k := 0; k < cfg.KeySpace; k++ {
		if _, ok := d.Find(k); ok {
			got++
		}
	}
	if want := expectPopulation(cfg, res); got != want {
		return fmt.Errorf("population = %d, want prefill+inserts-deletes = %d", got, want)
	}
	fmt.Printf("population conserved: %d items\n", got)
	return nil
}

func checkList(s *dict.SortedList[int, int], mode mm.Mode, cfg workload.Config, res workload.Result) error {
	if err := s.List().CheckQuiescent(); err != nil {
		return err
	}
	items := s.List().Items()
	for i := 1; i < len(items); i++ {
		if items[i-1].Key >= items[i].Key {
			return fmt.Errorf("list not strictly sorted at %d", i)
		}
	}
	if err := checkPopulation(s, cfg, res); err != nil {
		return err
	}
	switch mode {
	case mm.ModeRC:
		n := int64(len(items))
		if live, want := s.MemStats().Live(), 3+2*n; live != want {
			return fmt.Errorf("live cells = %d, want %d", live, want)
		}
		s.Close()
		if live := s.MemStats().Live(); live != 0 {
			return fmt.Errorf("%d cells leaked after Close", live)
		}
		fmt.Println("rc reclamation exact: 0 cells leaked")
	case mm.ModeEBR:
		// Reclamation is deferred: drain the limbo lists before counting.
		ebr := s.List().Manager().(mm.Quiescer)
		s.Close()
		if !ebr.Quiesce() {
			return fmt.Errorf("ebr limbo did not drain: %d cells in limbo", ebr.LimboLen())
		}
		if live := s.MemStats().Live(); live != 0 {
			return fmt.Errorf("%d cells leaked after Close+Quiesce", live)
		}
		fmt.Println("ebr reclamation complete: 0 cells leaked")
	}
	return nil
}

func checkSkipList(s *skiplist.SkipList[int, int], cfg workload.Config, res workload.Result) error {
	for i := 0; i < s.Levels(); i++ {
		if err := s.Level(i).CheckQuiescent(); err != nil {
			return fmt.Errorf("level %d: %w", i, err)
		}
	}
	return checkPopulation(s, cfg, res)
}

func checkTree(tr *bst.Tree[int, int], cfg workload.Config, res workload.Result) error {
	if err := tr.CheckQuiescent(); err != nil {
		return err
	}
	return checkPopulation(tr, cfg, res)
}
