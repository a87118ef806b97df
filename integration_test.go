package valois_test

import (
	"math/rand"
	"sync"
	"testing"

	"valois"
	"valois/internal/linearize"
)

// TestIntegrationGauntlet drives every public dictionary through a
// recorded concurrent workload and checks the full contract end to end:
// linearizability of the recorded history, population conservation, and
// ordered iteration consistency. It exercises the library exactly the way
// a downstream application would — through the root package only.
func TestIntegrationGauntlet(t *testing.T) {
	if testing.Short() {
		t.Skip("integration gauntlet is slow")
	}
	type entry struct {
		name string
		d    valois.Dictionary[int, int]
	}
	for _, mode := range []valois.MemoryMode{valois.GC, valois.RC} {
		entries := []entry{
			{"sortedlist/" + mode.String(), valois.NewSortedListDict[int, int](mode)},
			{"hash/" + mode.String(), valois.NewHashDict[int, int](16, mode, valois.HashInt)},
			{"skiplist/" + mode.String(), valois.NewSkipListDict[int, int](mode)},
			{"bst/" + mode.String(), valois.NewBSTDict[int, int](mode)},
		}
		for _, e := range entries {
			e := e
			t.Run(e.name, func(t *testing.T) {
				r := linearize.NewRecorder(e.d)
				const (
					goroutines = 6
					perG       = 300
					keys       = 48
				)
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(seed int64) {
						defer wg.Done()
						s := r.Session()
						rng := rand.New(rand.NewSource(seed))
						for i := 0; i < perG; i++ {
							k := rng.Intn(keys)
							switch rng.Intn(4) {
							case 0:
								s.Insert(k, int(seed)<<20|i)
							case 1:
								s.Delete(k)
							default:
								s.Find(k)
							}
						}
					}(int64(g + 1))
				}
				wg.Wait()

				if res := linearize.Check(r.History()); !res.OK {
					t.Fatalf("history not linearizable at key %d", res.BadKey)
				}

				// Population: count Find hits and cross-check against the
				// ordered view where available.
				population := 0
				for k := 0; k < keys; k++ {
					if _, ok := e.d.Find(k); ok {
						population++
					}
				}
				if od, ok := e.d.(valois.OrderedDictionary[int, int]); ok {
					if got := od.Len(); got != population {
						t.Fatalf("Len = %d, but %d keys answer Find", got, population)
					}
					prev := -1
					seen := 0
					od.Range(func(k, _ int) bool {
						if k <= prev {
							t.Errorf("Range out of order: %d after %d", k, prev)
							return false
						}
						prev = k
						seen++
						return true
					})
					if seen != population {
						t.Fatalf("Range visited %d items, want %d", seen, population)
					}
					// RangeFrom must agree with Range's tail.
					mid := keys / 2
					var fromRange []int
					od.Range(func(k, _ int) bool {
						if k >= mid {
							fromRange = append(fromRange, k)
						}
						return true
					})
					var fromStart []int
					od.RangeFrom(mid, func(k, _ int) bool {
						fromStart = append(fromStart, k)
						return true
					})
					if len(fromRange) != len(fromStart) {
						t.Fatalf("RangeFrom(%d) saw %d items, Range tail has %d", mid, len(fromStart), len(fromRange))
					}
					for i := range fromRange {
						if fromRange[i] != fromStart[i] {
							t.Fatalf("RangeFrom mismatch at %d: %d vs %d", i, fromStart[i], fromRange[i])
						}
					}
				}
			})
		}
	}
}

// TestIntegrationPipelines wires two structures together the way the
// examples do: a priority queue feeding a dictionary, under concurrent
// producers and consumers.
func TestIntegrationPipelines(t *testing.T) {
	pq := valois.NewPriorityQueue[int, int](valois.GC)
	out := valois.NewHashDict[int, int](32, valois.GC, valois.HashInt)

	const items = 3000
	var wg sync.WaitGroup
	// Stage 1: producers insert raw items into the priority queue.
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < items; i += 3 {
				pq.Insert(i, i*2)
			}
		}(p)
	}
	// Stage 2: drainers extract in priority order into the dictionary.
	var dwg sync.WaitGroup
	stop := make(chan struct{})
	for d := 0; d < 2; d++ {
		dwg.Add(1)
		go func() {
			defer dwg.Done()
			for {
				k, v, ok := pq.DeleteMin()
				if !ok {
					select {
					case <-stop:
						for {
							k, v, ok := pq.DeleteMin()
							if !ok {
								return
							}
							out.Insert(k, v)
						}
					default:
						continue
					}
				} else {
					out.Insert(k, v)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	dwg.Wait()

	for k := 0; k < items; k++ {
		if v, ok := out.Find(k); !ok || v != k*2 {
			t.Fatalf("item %d: got %d,%v; want %d,true", k, v, ok, k*2)
		}
	}
}
