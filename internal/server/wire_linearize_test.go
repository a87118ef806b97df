package server_test

// Loopback wire-level linearizability: the same history recording as the
// chaos suite, but over clean connections with no fault proxy — every
// operation completes, so the checker sees no Lost events. This isolates
// the serving stack itself: if this test fails, the violation is in the
// server or the §4 structures, not in the fault model.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"valois/internal/server"
	"valois/internal/testenv"
)

func TestWireLinearizable(t *testing.T) {
	for bi, backend := range server.Backends() {
		for mi, mode := range []string{"gc", "rc", "ebr"} {
			t.Run(fmt.Sprintf("%s-%s", backend, mode), func(t *testing.T) {
				seed := int64(bi*2 + mi + 1)
				runWireLinearizable(t, backend, mode, seed)
			})
		}
	}
}

func runWireLinearizable(t *testing.T, backend, mode string, seed int64) {
	_, addr := startServer(t, server.Config{Backend: backend, Mode: mode})

	const keys = 16
	h := newWireHist(keys)
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
				var err error
				switch rng.Intn(10) {
				case 0, 1, 2, 3:
					err, _ = h.doWireGet(c, k)
				case 4, 5, 6, 7:
					err = h.doWireSet(c, k)
				default:
					err = h.doWireDelete(c, k)
				}
				if err != nil {
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

	checkWireHistory(t, h, fmt.Sprintf("loopback backend=%s mode=%s seed=%d", backend, mode, seed))
}
