// Kvstore: the concurrent key-value cache served over TCP. The example
// boots valoisd's serving core (internal/server) in-process on a loopback
// port with the lock-free hash dictionary (§4.1) behind it, then drives
// it through internal/client the way an external valoisd deployment would
// be: readers issue GETs while writers insert and expire entries, every
// connection multiplexing onto the same lock-free hash table, and the run
// reports per-role throughput. The two served memory modes are
// contrasted: GC (Go's collector reclaims cells) and EBR (epoch-based
// reclamation recycles them through the §5 free list — the final STATS
// lines show the allocation and reclamation balance).
//
// Run with:
//
//	go run ./examples/kvstore
//
// To run against a standalone daemon instead: `make serve` in one shell,
// then point internal/client (or cmd/lfload) at its address.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"valois/internal/client"
	"valois/internal/server"
)

const (
	keySpace = 4096
	readers  = 6
	writers  = 2
	runFor   = 500 * time.Millisecond
)

func main() {
	for _, mode := range server.Modes() {
		if err := run(mode); err != nil {
			log.Fatalf("kvstore [%s]: %v", mode, err)
		}
	}
}

func run(mode string) error {
	// Boot the serving core in-process, exactly as cmd/valoisd does.
	srv, err := server.New(server.Config{
		Backend: server.BackendHash,
		Mode:    mode,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	// Warm the cache with one pipelined connection.
	warm, err := client.Dial(addr, client.Options{})
	if err != nil {
		return err
	}
	var b client.Batch
	for i := 0; i < keySpace/2; i++ {
		b.Set(key(i), []byte(fmt.Sprint(i)))
	}
	if _, err := warm.Do(&b); err != nil {
		return err
	}
	warm.Close()

	var (
		wg             sync.WaitGroup
		stop           atomic.Bool
		reads, hits    atomic.Int64
		writes, evicts atomic.Int64
	)
	errs := make(chan error, readers+writers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				_, ok, err := c.Get(key(rng.Intn(keySpace)))
				if err != nil {
					errs <- err
					return
				}
				if ok {
					hits.Add(1)
				}
				reads.Add(1)
			}
		}(int64(r + 1))
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c, err := client.Dial(addr, client.Options{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				i := rng.Intn(keySpace)
				if rng.Intn(2) == 0 {
					if err := c.Set(key(i), []byte(fmt.Sprint(i))); err != nil {
						errs <- err
						return
					}
					writes.Add(1)
				} else {
					deleted, err := c.Delete(key(i))
					if err != nil {
						errs <- err
						return
					}
					if deleted {
						evicts.Add(1)
					}
				}
			}
		}(int64(100 + w))
	}

	time.Sleep(runFor)
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}

	total := reads.Load()
	hitRate := 0.0
	if total > 0 {
		hitRate = 100 * float64(hits.Load()) / float64(total)
	}
	fmt.Printf("[%s] %.0f reads/s (%.0f%% hits), %.0f writes/s, %.0f evictions/s over TCP\n",
		mode,
		float64(total)/runFor.Seconds(), hitRate,
		float64(writes.Load())/runFor.Seconds(),
		float64(evicts.Load())/runFor.Seconds())

	// Under EBR the STATS counters show reclamation: cells the evictions
	// retired go back through the §5 free list once their grace period
	// ends, and mm_limbo counts those still waiting.
	c, err := client.Dial(addr, client.Options{})
	if err != nil {
		return err
	}
	stats, err := c.Stats()
	c.Close()
	if err != nil {
		return err
	}
	for _, name := range []string{"curr_items", "mm_allocs", "mm_reclaims", "mm_live", "mm_limbo"} {
		fmt.Printf("    %s = %s\n", name, stats[name])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

func key(i int) string { return fmt.Sprintf("user:%04d", i) }
