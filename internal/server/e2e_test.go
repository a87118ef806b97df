package server_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"valois/internal/client"
	"valois/internal/server"
	"valois/internal/testenv"
)

// TestE2EMixedWorkloadOracle drives a live loopback server from many
// client goroutines with a mixed get/set/delete workload and verifies the
// final contents against a mutex-protected map oracle, for every served
// backend under each served memory mode. Each goroutine owns a disjoint
// key range, so per-key operation order is sequential and the oracle is
// exact; the goroutines still collide inside the one lock-free
// dictionary, which is the concurrency under test. Iteration counts
// respect the VALOIS_STRESS_DIV divisor so the race-detector CI run stays
// fast.
func TestE2EMixedWorkloadOracle(t *testing.T) {
	for _, backend := range server.Backends() {
		for _, mode := range server.Modes() {
			t.Run(backend+"/"+mode, func(t *testing.T) {
				runOracle(t, server.Config{Backend: backend, Mode: mode, Buckets: 32})
			})
		}
	}
}

func runOracle(t *testing.T, cfg server.Config) {
	srv, addr := startServer(t, cfg)

	const goroutines, keysPerG = 8, 96
	ops := testenv.Iters(600)

	var (
		oracleMu sync.Mutex
		oracle   = make(map[string][]byte)
	)
	readOracle := func(k string) ([]byte, bool) {
		oracleMu.Lock()
		defer oracleMu.Unlock()
		v, ok := oracle[k]
		return v, ok
	}
	writeOracle := func(k string, v []byte) {
		oracleMu.Lock()
		defer oracleMu.Unlock()
		if v == nil {
			delete(oracle, k)
		} else {
			oracle[k] = v
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Goroutines alternate wire protocols against the one
			// auto-detecting server.
			c, err := client.Dial(addr, client.Options{Protocol: protoFor(g)})
			if err != nil {
				errs <- fmt.Errorf("goroutine %d: dial: %w", g, err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < ops; i++ {
				// Keys are disjoint per goroutine: g owns key(g, 0..keysPerG).
				k := fmt.Sprintf("g%02d:%04d", g, rng.Intn(keysPerG))
				switch p := rng.Intn(100); {
				case p < 30: // get, checked against the oracle
					v, found, err := c.Get(k)
					if err != nil {
						errs <- fmt.Errorf("goroutine %d: Get(%s): %w", g, k, err)
						return
					}
					want, wantFound := readOracle(k)
					if found != wantFound || !bytes.Equal(v, want) {
						errs <- fmt.Errorf("goroutine %d: Get(%s) = %q,%v; oracle %q,%v",
							g, k, v, found, want, wantFound)
						return
					}
				case p < 70: // set
					v := []byte(fmt.Sprintf("v%d-%d", g, i))
					if err := c.Set(k, v); err != nil {
						errs <- fmt.Errorf("goroutine %d: Set(%s): %w", g, k, err)
						return
					}
					writeOracle(k, v)
				default: // delete, result checked against the oracle
					deleted, err := c.Delete(k)
					if err != nil {
						errs <- fmt.Errorf("goroutine %d: Delete(%s): %w", g, k, err)
						return
					}
					_, wantFound := readOracle(k)
					if deleted != wantFound {
						errs <- fmt.Errorf("goroutine %d: Delete(%s) = %v; oracle has=%v",
							g, k, deleted, wantFound)
						return
					}
					writeOracle(k, nil)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Final contents must match the oracle exactly.
	c := dialTest(t, addr)
	for k, want := range oracle {
		v, found, err := c.Get(k)
		if err != nil || !found || !bytes.Equal(v, want) {
			t.Fatalf("final Get(%s) = %q,%v,%v; oracle %q", k, v, found, err, want)
		}
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if want := fmt.Sprintf("%d", len(oracle)); stats["curr_items"] != want {
		t.Fatalf("curr_items = %s, want %s", stats["curr_items"], want)
	}
	if srv.Ordered() {
		// A full RANGE sweep must observe exactly the oracle's items, in
		// ascending key order.
		entries, err := c.Range("g", len(oracle)+10)
		if err != nil {
			t.Fatalf("Range: %v", err)
		}
		if len(entries) != len(oracle) {
			t.Fatalf("Range returned %d entries, oracle has %d", len(entries), len(oracle))
		}
		for i, e := range entries {
			if i > 0 && entries[i-1].Key >= e.Key {
				t.Fatalf("Range out of order: %q before %q", entries[i-1].Key, e.Key)
			}
			if want := oracle[e.Key]; !bytes.Equal(e.Value, want) {
				t.Fatalf("Range entry %s = %q, oracle %q", e.Key, e.Value, want)
			}
		}
	}
}
