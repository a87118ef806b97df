package server_test

// Loopback wire-level linearizability: the same history recording as the
// chaos suite, but over clean connections with no fault proxy — every
// operation completes, so the checker sees no Lost events. This isolates
// the serving stack itself: if this test fails, the violation is in the
// server or the §4 structures, not in the fault model.

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"valois/internal/client"
	"valois/internal/server"
	"valois/internal/testenv"
)

func TestWireLinearizable(t *testing.T) {
	for bi, backend := range server.Backends() {
		for mi, mode := range server.Modes() {
			seed := int64(bi*2 + mi + 1)
			t.Run(fmt.Sprintf("%s-%s", backend, mode), func(t *testing.T) {
				runWireLinearizable(t, backend, mode, seed, mixedOps)
			})
			t.Run(fmt.Sprintf("%s-%s-hotkey", backend, mode), func(t *testing.T) {
				runWireLinearizable(t, backend, mode, seed, hotKeyOps)
			})
		}
	}
}

// wireMix is the shape of a recorded workload: the key count, and out of
// every ten operations how many are GETs and SETs (the rest DELETEs).
type wireMix struct {
	keys, gets, sets int
}

var (
	// mixedOps spreads GET/SET/DELETE 40/40/20 over 16 keys.
	mixedOps = wireMix{keys: 16, gets: 4, sets: 4}
	// hotKeyOps is SET and GET only on two keys, so nearly every SET
	// overwrites a bound key while other connections read it — the
	// window a delete-then-insert SET leaves the key absent in.
	hotKeyOps = wireMix{keys: 2, gets: 5, sets: 5}
)

// op runs one operation drawn from the mix.
func (m wireMix) op(h *wireHist, c *client.Client, k, draw int) (err error, fatal bool) {
	switch {
	case draw < m.gets:
		return h.doWireGet(c, k)
	case draw < m.gets+m.sets:
		return h.doWireSet(c, k), false
	default:
		return h.doWireDelete(c, k), false
	}
}

func runWireLinearizable(t *testing.T, backend, mode string, seed int64, mix wireMix) {
	_, addr := startServer(t, server.Config{Backend: backend, Mode: mode})

	h := newWireHist(mix.keys)
	workers := 4
	opsPer := testenv.Iters(150)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed<<8 + int64(w)))
			// Workers alternate wire protocols, so every seed checks
			// text and RESP traffic interleaved on one server.
			c := dialTestProto(t, addr, protoFor(w))
			for i := 0; i < opsPer; i++ {
				k, ok := h.pickKey(rng.Intn)
				if !ok {
					return
				}
				if err, _ := mix.op(h, c, k, rng.Intn(10)); err != nil {
					// No faults are injected here, so every error is real.
					errs <- fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("clean wire op failed: %v", err)
	}

	checkWireHistory(t, h, fmt.Sprintf("loopback backend=%s mode=%s seed=%d keys=%d", backend, mode, seed, mix.keys))
}

// TestWireHotKeyNeverMissed is the dictionary-level probe
// (TestUpsertHotKeyNeverMissed in internal/dict) over the wire: two
// connections SET one key that is never deleted while two others GET
// it, and every GET must hit. Requests travel in pipelined batches, so
// the server executes them back to back, as fast as the dictionary-level
// probe does, rather than one per round trip.
func TestWireHotKeyNeverMissed(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	defer runtime.GOMAXPROCS(prev)
	const key, depth = "hot", 64
	rounds := testenv.Iters(200)
	for _, backend := range server.Backends() {
		for _, mode := range server.Modes() {
			t.Run(backend+"-"+mode, func(t *testing.T) {
				_, addr := startServer(t, server.Config{Backend: backend, Mode: mode})
				if err := dialTest(t, addr).Set(key, []byte("0")); err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				for w := 0; w < 2; w++ {
					c := dialTestProto(t, addr, protoFor(w))
					wg.Add(1)
					go func() {
						defer wg.Done()
						var b client.Batch
						for r := 0; r < rounds; r++ {
							b.Reset()
							for i := 0; i < depth; i++ {
								b.Set(key, []byte(strconv.Itoa(r*depth+i)))
							}
							if _, err := c.Do(&b); err != nil {
								t.Errorf("SET batch: %v", err)
								return
							}
						}
					}()
				}
				var done atomic.Bool
				var reads, misses atomic.Int64
				var readers sync.WaitGroup
				for r := 0; r < 2; r++ {
					c := dialTestProto(t, addr, protoFor(r))
					readers.Add(1)
					go func() {
						defer readers.Done()
						var b client.Batch
						for i := 0; i < depth; i++ {
							b.Get(key)
						}
						var res []client.Result
						for !done.Load() {
							var err error
							if res, err = c.DoInto(&b, res[:0]); err != nil {
								t.Errorf("GET batch: %v", err)
								return
							}
							for _, g := range res {
								reads.Add(1)
								if !g.Found {
									misses.Add(1)
								}
							}
						}
					}()
				}
				wg.Wait()
				done.Store(true)
				readers.Wait()
				if misses.Load() != 0 {
					t.Fatalf("%d of %d GETs of a never-deleted key missed", misses.Load(), reads.Load())
				}
			})
		}
	}
}
