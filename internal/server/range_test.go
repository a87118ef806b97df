package server

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"valois/internal/proto"
	"valois/internal/testenv"
)

// The tests below keep the TestRangeMerged… names they had when RANGE was
// a merge over hashed shards; what they check is RANGE's contract, which
// did not change when the merge went.

// newTestServer builds a server that is never served: tests drive its
// store and rangeFrom directly.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s
}

func (s *Server) put(keys ...string) {
	for _, k := range keys {
		s.store.Upsert(k, []byte("v:"+k))
	}
}

// modelRange is the specification of rangeFrom: the first count of the
// stored keys that are ≥ start, ascending. keys is what the test put.
func modelRange(keys []string, start string, count int) []string {
	seen := make(map[string]bool, len(keys))
	var all []string
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			all = append(all, k)
		}
	}
	sort.Strings(all)
	all = all[sort.SearchStrings(all, start):]
	if len(all) > count {
		all = all[:count]
	}
	return all
}

func checkAgainstModel(t *testing.T, s *Server, keys []string, start string, count int) {
	t.Helper()
	got := s.rangeFrom(new(rangeScratch), start, count)
	want := modelRange(keys, start, count)
	if len(got) != len(want) {
		t.Fatalf("rangeFrom(%q, %d) returned %d items, model %d", start, count, len(got), len(want))
	}
	for i, it := range got {
		if it.key != want[i] || string(it.value) != "v:"+want[i] {
			t.Fatalf("rangeFrom(%q, %d)[%d] = %q=%q, model key %q", start, count, i, it.key, it.value, want[i])
		}
	}
}

func TestRangeMergedMatchesModel(t *testing.T) {
	const backend = BackendSkipList
	t.Run(backend, func(t *testing.T) {
		forModes := func(name string, f func(t *testing.T, mode string)) {
			t.Run(name, func(t *testing.T) {
				for _, mode := range Modes() {
					t.Run(mode, func(t *testing.T) { f(t, mode) })
				}
			})
		}
		forModes("table", func(t *testing.T, mode string) {
			s := newTestServer(t, Config{Backend: backend, Mode: mode})
			checkAgainstModel(t, s, nil, "", 32) // empty store
			var keys []string
			for i := 0; i < 200; i++ {
				keys = append(keys, fmt.Sprintf("key-%04d", 2*i))
			}
			s.put(keys...)
			// Starts below the keys, on the first, between two, on one
			// inside, on the last, and above; counts of one, short of,
			// exactly and past what is there.
			for _, start := range []string{"", "a", "key-0000", "key-0101", "key-0200", "key-0398", "key-0399", "zzz"} {
				for _, count := range []int{1, 2, 32, 199, 200, 201, proto.MaxRange} {
					checkAgainstModel(t, s, keys, start, count)
				}
			}
		})
		forModes("sparse", func(t *testing.T, mode string) {
			s := newTestServer(t, Config{Backend: backend, Mode: mode})
			keys := []string{"b", "d", "f", "h", "j"}
			s.put(keys...)
			for _, start := range []string{"", "a", "c", "j", "k"} {
				for _, count := range []int{1, 3, 5, 32} {
					checkAgainstModel(t, s, keys, start, count)
				}
			}
		})
		forModes("random", func(t *testing.T, mode string) {
			rng := rand.New(rand.NewSource(20260928))
			for round := 0; round < 6; round++ {
				s := newTestServer(t, Config{Backend: backend, Mode: mode})
				space := 1 + rng.Intn(600)
				var keys []string
				for i, n := 0, rng.Intn(300); i < n; i++ {
					keys = append(keys, fmt.Sprintf("r%04d", rng.Intn(space)))
				}
				s.put(keys...) // repeats overwrite
				for i := 0; i < 40; i++ {
					count := 1 + rng.Intn(64)
					if rng.Intn(8) == 0 {
						count = 1 + rng.Intn(proto.MaxRange)
					}
					checkAgainstModel(t, s, keys, fmt.Sprintf("r%04d", rng.Intn(space+2)), count)
				}
			}
		})
	})
}

// countingStore counts the items the backend's scan hands to RANGE.
type countingStore struct {
	ordered
	visited *int
}

func (c countingStore) RangeFrom(start string, f func(string, []byte) bool) {
	c.ordered.RangeFrom(start, func(k string, v []byte) bool {
		*c.visited++
		return f(k, v)
	})
}

// TestRangeMergedVisitsBounded: a RANGE takes from the backend's scan
// what it returns and stops — at most count + 1 items, however many keys
// are stored. (Merging sixteen shards looked at up to 135 for 32.)
func TestRangeMergedVisitsBounded(t *testing.T) {
	const keys, count = 2048, 32
	s := newTestServer(t, Config{Backend: BackendSkipList, Mode: "gc"})
	for i := 0; i < keys; i++ {
		s.put(fmt.Sprintf("key-%05d", i))
	}
	visited := 0
	s.ordered = countingStore{s.ordered, &visited}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		start := fmt.Sprintf("key-%05d", rng.Intn(keys-count))
		visited = 0
		if got := s.rangeFrom(new(rangeScratch), start, count); len(got) != count {
			t.Fatalf("rangeFrom(%q, %d) returned %d items", start, count, len(got))
		}
		if visited > count+1 {
			t.Errorf("rangeFrom(%q, %d) was handed %d items, want ≤ %d", start, count, visited, count+1)
		}
	}
}

// TestRangeMergedAllocs: a warm RANGE allocates nothing — its items go
// into the connection's scratch and the scan callback is bound once —
// however many keys are stored, and the scratch grows with the items
// found, never with the count the client asked for.
func TestRangeMergedAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector allocates on its own")
	}
	allocsAt := func(keys int) float64 {
		s := newTestServer(t, Config{Backend: BackendSkipList, Mode: "gc"})
		for i := 0; i < keys; i++ {
			s.put(fmt.Sprintf("key-%05d", i))
		}
		starts := make([]string, 64)
		for i := range starts {
			starts[i] = fmt.Sprintf("key-%05d", i*131%(keys-32))
		}
		var r rangeScratch
		i := 0
		return testing.AllocsPerRun(100, func() {
			if got := s.rangeFrom(&r, starts[i%len(starts)], 32); len(got) != 32 {
				t.Fatalf("rangeFrom returned %d items, want 32", len(got))
			}
			r.reset()
			i++
		})
	}
	few, many := allocsAt(256), allocsAt(8192)
	if few != 0 || many != 0 {
		t.Errorf("warm rangeFrom(start, 32): %.0f allocs over 256 keys, %.0f over 8192; want 0", few, many)
	}

	small := newTestServer(t, Config{Backend: BackendSkipList, Mode: "gc"})
	small.put("a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l")
	var r rangeScratch
	var n int
	got := testing.AllocsPerRun(100, func() {
		n = len(small.rangeFrom(&r, "", proto.MaxRange))
		r.reset()
	})
	if got != 0 || n != 12 || cap(r.items) > 64 {
		t.Errorf("warm rangeFrom(\"\", MaxRange) over 12 items: %.0f allocs, %d items, scratch capacity %d; want 0, 12 and a scratch sized by the items",
			got, n, cap(r.items))
	}
}

// TestRangeMergedUnderChurn: while writers set and delete keys of their
// own, every reply is strictly ascending, within [start, …) and count,
// and misses no key that stayed bound throughout and sorts before the
// reply's last key.
func TestRangeMergedUnderChurn(t *testing.T) {
	const backend = BackendSkipList
	for _, mode := range Modes() {
		t.Run(backend+"-"+mode, func(t *testing.T) {
			s := newTestServer(t, Config{Backend: backend, Mode: mode})
			const space = 512
			key := func(i int) string { return fmt.Sprintf("k%04d", i) }
			stable := func(i int) bool { return i%4 == 0 } // never written after the fill
			for i := 0; i < space; i++ {
				if stable(i) || i%2 == 0 {
					s.put(key(i))
				}
			}

			const writers = 3 // writer w owns the keys with i%4 == w+1
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						i := rng.Intn(space)
						if i%4 != w+1 {
							continue
						}
						if k := key(i); rng.Intn(2) == 0 {
							s.put(k)
						} else {
							s.store.Delete(k)
						}
					}
				}(w)
			}

			rng := rand.New(rand.NewSource(99))
			deadline := time.Now().Add(testenv.Duration(300 * time.Millisecond))
			for rounds := 0; rounds < 20 || time.Now().Before(deadline); rounds++ {
				from, count := rng.Intn(space), 1+rng.Intn(48)
				start := key(from)
				got := s.rangeFrom(new(rangeScratch), start, count)
				if len(got) > count {
					t.Fatalf("rangeFrom(%q, %d) returned %d items", start, count, len(got))
				}
				for i, it := range got {
					if it.key < start || (i > 0 && it.key <= got[i-1].key) {
						t.Fatalf("rangeFrom(%q, %d): item %d = %q after %q", start, count, i, it.key, got[max(i-1, 0)].key)
					}
				}
				// Below the last key returned (or everywhere, when the
				// reply was not cut by count) no stable key is missing.
				end := key(space)
				if len(got) == count {
					end = got[count-1].key
				}
				returned := make(map[string]bool, len(got))
				for _, it := range got {
					returned[it.key] = true
				}
				for i := from; i < space && key(i) < end; i++ {
					if stable(i) && !returned[key(i)] {
						t.Fatalf("rangeFrom(%q, %d) missed stable key %q below %q", start, count, key(i), end)
					}
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}
