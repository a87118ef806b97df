package server

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"valois/internal/proto"
	"valois/internal/testenv"
)

// newStore builds a server that is never served: the tests below drive
// its shards and rangeMerged directly.
func newStore(t *testing.T, backend, mode string, shards int) *Server {
	t.Helper()
	s, err := New(Config{Backend: backend, Mode: mode, Shards: shards})
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
		s.shardFor(k).set(k, []byte("v:"+k))
	}
}

// modelRange is the specification of rangeMerged: a sorted merge of every
// shard's contents, cut to the first count keys ≥ start.
func (s *Server) modelRange(start string, count int) []string {
	var all []string
	for _, sh := range s.shards {
		sh.ord.RangeFrom("", func(k string, _ []byte) bool {
			all = append(all, k)
			return true
		})
	}
	sort.Strings(all)
	all = all[sort.SearchStrings(all, start):]
	if len(all) > count {
		all = all[:count]
	}
	return all
}

func checkAgainstModel(t *testing.T, s *Server, start string, count int) {
	t.Helper()
	got := s.rangeMerged(start, count)
	want := s.modelRange(start, count)
	if len(got) != len(want) {
		t.Fatalf("rangeMerged(%q, %d) returned %d items, model %d", start, count, len(got), len(want))
	}
	for i, it := range got {
		if it.key != want[i] || string(it.value) != "v:"+want[i] {
			t.Fatalf("rangeMerged(%q, %d)[%d] = %q=%q, model key %q", start, count, i, it.key, it.value, want[i])
		}
	}
}

// keysInShard returns n distinct keys that all hash to one shard.
func (s *Server) keysInShard(shard, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("one-%05d", i); s.shardIndex(k) == shard {
			keys = append(keys, k)
		}
	}
	return keys
}

var orderedBackends = []string{BackendList, BackendSkipList, BackendBST}

func TestRangeMergedMatchesModel(t *testing.T) {
	for _, backend := range orderedBackends {
		t.Run(backend, func(t *testing.T) {
			t.Run("table", func(t *testing.T) {
				s := newStore(t, backend, "gc", 16)
				checkAgainstModel(t, s, "", 32) // empty store
				var keys []string
				for i := 0; i < 200; i++ {
					keys = append(keys, fmt.Sprintf("key-%04d", 2*i))
				}
				s.put(keys...)
				for _, start := range []string{"", "a", "key-0000", "key-0101", "key-0398", "key-0399", "zzz"} {
					for _, count := range []int{1, 2, 32, 199, 200, 201, proto.MaxRange} {
						checkAgainstModel(t, s, start, count)
					}
				}
			})
			t.Run("sparse", func(t *testing.T) {
				// Five keys over sixteen shards: most shards are empty.
				s := newStore(t, backend, "gc", 16)
				s.put("b", "d", "f", "h", "j")
				for _, start := range []string{"", "a", "c", "j", "k"} {
					for _, count := range []int{1, 3, 5, 32} {
						checkAgainstModel(t, s, start, count)
					}
				}
			})
			t.Run("one shard", func(t *testing.T) {
				// Every hit comes from the last shard scanned, after the
				// heap has filled with larger keys from the others.
				s := newStore(t, backend, "gc", 16)
				s.put(s.keysInShard(15, 40)...)
				for i := 0; i < 100; i++ {
					s.put(fmt.Sprintf("zlater-%03d", i))
				}
				for _, count := range []int{1, 32, 40, 41, 140, 200} {
					checkAgainstModel(t, s, "", count)
					checkAgainstModel(t, s, "one-00010", count)
				}
			})
			t.Run("random", func(t *testing.T) {
				rng := rand.New(rand.NewSource(20260928))
				for round := 0; round < 12; round++ {
					s := newStore(t, backend, "gc", 1+rng.Intn(16))
					space := 1 + rng.Intn(600)
					for i, n := 0, rng.Intn(300); i < n; i++ {
						s.put(fmt.Sprintf("r%04d", rng.Intn(space)))
					}
					for i := 0; i < 40; i++ {
						count := 1 + rng.Intn(64)
						if rng.Intn(8) == 0 {
							count = 1 + rng.Intn(proto.MaxRange)
						}
						checkAgainstModel(t, s, fmt.Sprintf("r%04d", rng.Intn(space+2)), count)
					}
				}
			})
		})
	}
}

// countingOrdered counts the items a shard's scan hands to the merge.
type countingOrdered struct {
	ordered
	visited *atomic.Int64
}

func (c countingOrdered) RangeFrom(start string, f func(string, []byte) bool) {
	c.ordered.RangeFrom(start, func(k string, v []byte) bool {
		c.visited.Add(1)
		return f(k, v)
	})
}

// TestRangeMergedVisitsBounded: on hash-spread keys the merge looks at
// about count·H(shards) + shards items (≈ 124 here), not count from every
// shard (512).
func TestRangeMergedVisitsBounded(t *testing.T) {
	const shards, count = 16, 32
	s := newStore(t, BackendSkipList, "gc", shards)
	for i := 0; i < 8192; i++ {
		s.put(fmt.Sprintf("key-%05d", i))
	}
	var visited atomic.Int64
	for _, sh := range s.shards {
		sh.ord = countingOrdered{sh.ord, &visited}
	}
	rng := rand.New(rand.NewSource(1))
	var worst int64
	for i := 0; i < 50; i++ {
		start := fmt.Sprintf("key-%05d", rng.Intn(8000))
		visited.Store(0)
		if got := s.rangeMerged(start, count); len(got) != count {
			t.Fatalf("rangeMerged(%q, %d) returned %d items", start, count, len(got))
		}
		v := visited.Load()
		if v > 6*count+shards {
			t.Errorf("rangeMerged(%q, %d) visited %d items, want ≤ %d", start, count, v, 6*count+shards)
		}
		worst = max(worst, v)
	}
	t.Logf("most items visited for one RANGE of %d over %d shards: %d", count, shards, worst)
}

// TestRangeMergedAllocs: a RANGE allocates in proportion to what it
// returns, not to the shard count or to the count the client asked for.
func TestRangeMergedAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector allocates on its own")
	}
	s := newStore(t, BackendSkipList, "gc", 16)
	for i := 0; i < 8192; i++ {
		s.put(fmt.Sprintf("key-%05d", i))
	}
	i := 0
	got := testing.AllocsPerRun(100, func() {
		s.rangeMerged(fmt.Sprintf("key-%05d", i%8000), 32)
		i += 131
	})
	t.Logf("rangeMerged(start, 32) on 16 skiplist shards: %.0f allocs", got)
	if got > 40 { // parent: 333
		t.Errorf("rangeMerged(start, 32) on 16 skiplist shards: %.0f allocs, want ≤ 40", got)
	}

	small := newStore(t, BackendSkipList, "gc", 16)
	small.put("a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l")
	var reply []kv
	got = testing.AllocsPerRun(100, func() { reply = small.rangeMerged("", proto.MaxRange) })
	if got > 40 || cap(reply) > 64 {
		t.Errorf("rangeMerged(\"\", MaxRange) over 12 items: %.0f allocs, reply capacity %d; want both sized by the items", got, cap(reply))
	}
}

// TestRangeMergedUnderChurn: while writers set and delete keys of their
// own, every reply is strictly ascending, within [start, …) and count,
// and misses no key that stayed bound throughout and sorts before the
// reply's last key.
func TestRangeMergedUnderChurn(t *testing.T) {
	for _, tc := range []struct{ backend, mode string }{
		{BackendList, "gc"}, {BackendSkipList, "gc"}, {BackendSkipList, "ebr"}, {BackendBST, "gc"},
	} {
		t.Run(tc.backend+"-"+tc.mode, func(t *testing.T) {
			s := newStore(t, tc.backend, tc.mode, 16)
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
							s.shardFor(k).d.Delete(k)
						}
					}
				}(w)
			}

			rng := rand.New(rand.NewSource(99))
			deadline := time.Now().Add(testenv.Duration(300 * time.Millisecond))
			for rounds := 0; rounds < 20 || time.Now().Before(deadline); rounds++ {
				from, count := rng.Intn(space), 1+rng.Intn(48)
				start := key(from)
				got := s.rangeMerged(start, count)
				if len(got) > count {
					t.Fatalf("rangeMerged(%q, %d) returned %d items", start, count, len(got))
				}
				for i, it := range got {
					if it.key < start || (i > 0 && it.key <= got[i-1].key) {
						t.Fatalf("rangeMerged(%q, %d): item %d = %q after %q", start, count, i, it.key, got[max(i-1, 0)].key)
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
						t.Fatalf("rangeMerged(%q, %d) missed stable key %q below %q", start, count, key(i), end)
					}
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}
