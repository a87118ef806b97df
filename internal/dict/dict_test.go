package dict

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"valois/internal/mm"
	"valois/internal/testenv"
)

// implementations yields each dictionary implementation under each memory
// mode, for table-style reuse of the semantic tests.
func implementations(t *testing.T, f func(t *testing.T, d Dictionary[int, int])) {
	t.Helper()
	for _, mode := range []mm.Mode{mm.ModeGC, mm.ModeRC} {
		t.Run("sortedlist/"+mode.String(), func(t *testing.T) {
			f(t, NewSortedList[int, int](mode))
		})
		t.Run("hash/"+mode.String(), func(t *testing.T) {
			f(t, NewHash[int, int](8, mode, HashInt))
		})
	}
}

func TestDictionaryBasics(t *testing.T) {
	implementations(t, func(t *testing.T, d Dictionary[int, int]) {
		if _, ok := d.Find(1); ok {
			t.Fatal("Find on empty dictionary reported a hit")
		}
		if !d.Insert(1, 100) {
			t.Fatal("first Insert failed")
		}
		if d.Insert(1, 200) {
			t.Fatal("duplicate Insert succeeded (Fig 12 lines 6-7 forbid it)")
		}
		if v, ok := d.Find(1); !ok || v != 100 {
			t.Fatalf("Find(1) = %d,%v; want 100,true (duplicate insert must not replace)", v, ok)
		}
		if !d.Delete(1) {
			t.Fatal("Delete of present key failed")
		}
		if d.Delete(1) {
			t.Fatal("Delete of absent key succeeded")
		}
		if _, ok := d.Find(1); ok {
			t.Fatal("Find after Delete reported a hit")
		}
	})
}

func TestDictionaryManyKeys(t *testing.T) {
	implementations(t, func(t *testing.T, d Dictionary[int, int]) {
		const n = 200
		perm := rand.New(rand.NewSource(7)).Perm(n)
		for _, k := range perm {
			if !d.Insert(k, k*10) {
				t.Fatalf("Insert(%d) failed", k)
			}
		}
		for k := 0; k < n; k++ {
			if v, ok := d.Find(k); !ok || v != k*10 {
				t.Fatalf("Find(%d) = %d,%v; want %d,true", k, v, ok, k*10)
			}
		}
		// Delete the odd keys; the even ones must remain.
		for k := 1; k < n; k += 2 {
			if !d.Delete(k) {
				t.Fatalf("Delete(%d) failed", k)
			}
		}
		for k := 0; k < n; k++ {
			_, ok := d.Find(k)
			if want := k%2 == 0; ok != want {
				t.Fatalf("Find(%d) present=%v, want %v", k, ok, want)
			}
		}
	})
}

func TestSortedListOrderAndRange(t *testing.T) {
	s := NewSortedList[int, string](mm.ModeGC)
	for _, k := range []int{5, 1, 4, 2, 3} {
		if !s.Insert(k, fmt.Sprintf("v%d", k)) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	var keys []int
	s.Range(func(k int, v string) bool {
		keys = append(keys, k)
		if want := fmt.Sprintf("v%d", k); v != want {
			t.Fatalf("Range value for %d = %q, want %q", k, v, want)
		}
		return true
	})
	for i, k := range keys {
		if k != i+1 {
			t.Fatalf("keys in list order = %v, want ascending 1..5", keys)
		}
	}
	// Early termination.
	count := 0
	s.Range(func(int, string) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("Range visited %d items after early stop, want 2", count)
	}
	if err := s.List().CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
}

func TestDictionaryMatchesMapModel(t *testing.T) {
	// Fields must be exported for testing/quick to generate values.
	type op struct {
		Kind uint8
		Key  uint8
	}
	check := func(make func() Dictionary[int, int]) func(ops []op) bool {
		return func(ops []op) bool {
			d := make()
			model := map[int]int{}
			val := 0
			for _, o := range ops {
				k := int(o.Key % 32)
				switch o.Kind % 3 {
				case 0:
					val++
					_, exists := model[k]
					if got, want := d.Insert(k, val), !exists; got != want {
						return false
					}
					if !exists {
						model[k] = val
					}
				case 1:
					_, exists := model[k]
					if got := d.Delete(k); got != exists {
						return false
					}
					delete(model, k)
				default:
					mv, exists := model[k]
					v, ok := d.Find(k)
					if ok != exists || (ok && v != mv) {
						return false
					}
				}
			}
			return true
		}
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(check(func() Dictionary[int, int] {
		return NewSortedList[int, int](mm.ModeRC)
	}), cfg); err != nil {
		t.Errorf("sortedlist: %v", err)
	}
	if err := quick.Check(check(func() Dictionary[int, int] {
		return NewHash[int, int](4, mm.ModeGC, HashInt)
	}), cfg); err != nil {
		t.Errorf("hash: %v", err)
	}
}

func TestConcurrentDistinctKeyInserts(t *testing.T) {
	implementations(t, func(t *testing.T, d Dictionary[int, int]) {
		const (
			goroutines = 8
			perG       = 200
		)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					k := g*perG + i
					if !d.Insert(k, k) {
						t.Errorf("Insert(%d) of a distinct key failed", k)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for k := 0; k < goroutines*perG; k++ {
			if v, ok := d.Find(k); !ok || v != k {
				t.Fatalf("Find(%d) = %d,%v after concurrent inserts", k, v, ok)
			}
		}
	})
}

func TestConcurrentSameKeyInsertExactlyOneWins(t *testing.T) {
	implementations(t, func(t *testing.T, d Dictionary[int, int]) {
		const (
			goroutines = 8
			keys       = 50
		)
		var wins atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < keys; k++ {
					if d.Insert(k, g) {
						wins.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
		if got := wins.Load(); got != keys {
			t.Fatalf("%d inserts won across %d contended keys, want exactly %d (key uniqueness, §4.1)", got, keys, keys)
		}
		for k := 0; k < keys; k++ {
			if _, ok := d.Find(k); !ok {
				t.Fatalf("key %d missing after contended inserts", k)
			}
		}
	})
}

func TestConcurrentSameKeyDeleteExactlyOneWins(t *testing.T) {
	implementations(t, func(t *testing.T, d Dictionary[int, int]) {
		const (
			goroutines = 8
			keys       = 50
		)
		for k := 0; k < keys; k++ {
			d.Insert(k, k)
		}
		var wins atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < keys; k++ {
					if d.Delete(k) {
						wins.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		if got := wins.Load(); got != keys {
			t.Fatalf("%d deletes won across %d keys, want exactly %d", got, keys, keys)
		}
	})
}

func TestConcurrentMixedChurn(t *testing.T) {
	iters := 4000
	if testing.Short() {
		iters = 400
	}
	iters = testenv.Iters(iters)
	implementations(t, func(t *testing.T, d Dictionary[int, int]) {
		const (
			goroutines = 8
			keyspace   = 64
		)
		var inserts, deletes atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < iters; i++ {
					k := rng.Intn(keyspace)
					switch rng.Intn(3) {
					case 0:
						if d.Insert(k, k) {
							inserts.Add(1)
						}
					case 1:
						if d.Delete(k) {
							deletes.Add(1)
						}
					default:
						if v, ok := d.Find(k); ok && v != k {
							t.Errorf("Find(%d) returned foreign value %d", k, v)
							return
						}
					}
				}
			}(int64(g + 1))
		}
		wg.Wait()
		// Conservation: successful inserts minus successful deletes must
		// equal the remaining population.
		remaining := 0
		for k := 0; k < keyspace; k++ {
			if _, ok := d.Find(k); ok {
				remaining++
			}
		}
		if got, want := inserts.Load()-deletes.Load(), int64(remaining); got != want {
			t.Fatalf("inserts-deletes = %d, but %d keys remain", got, want)
		}
	})
}

func TestSortedListStaysSortedUnderChurn(t *testing.T) {
	s := NewSortedList[int, int](mm.ModeRC)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				k := rng.Intn(100)
				if rng.Intn(2) == 0 {
					s.Insert(k, k)
				} else {
					s.Delete(k)
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	if err := s.List().CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	items := s.List().Items()
	for i := 1; i < len(items); i++ {
		if items[i-1].Key >= items[i].Key {
			t.Fatalf("list not strictly sorted at %d: %v then %v", i, items[i-1].Key, items[i].Key)
		}
	}
	// Leak check: close and verify full reclamation.
	n := int64(len(items))
	rc := s.List().Manager().(*mm.RC[entry[int, int]])
	if live, want := rc.Stats().Live(), 3+2*n; live != want {
		t.Fatalf("live cells = %d, want %d", live, want)
	}
	s.Close()
	if live := rc.Stats().Live(); live != 0 {
		t.Fatalf("live cells after Close = %d, want 0", live)
	}
}

func TestHashDistribution(t *testing.T) {
	// The helper hash functions must spread sequential keys across
	// buckets reasonably evenly — the assumption behind §4.1's O(1)
	// claim.
	const buckets = 16
	const keys = 1 << 12
	counts := make([]int, buckets)
	for k := 0; k < keys; k++ {
		counts[HashInt(k)%buckets]++
	}
	want := keys / buckets
	for b, got := range counts {
		if got < want/2 || got > want*2 {
			t.Fatalf("bucket %d has %d of %d keys; hash is too skewed", b, got, keys)
		}
	}
	s1 := HashString("alpha")
	s2 := HashString("beta")
	if s1 == s2 {
		t.Fatal("HashString collides on trivial inputs")
	}
	if HashString("alpha") != s1 {
		t.Fatal("HashString is not deterministic")
	}
}
