package skiplist

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"valois/internal/mm"
	"valois/internal/testenv"
)

func modes(t *testing.T, f func(t *testing.T, mode mm.Mode)) {
	t.Helper()
	for _, mode := range []mm.Mode{mm.ModeGC, mm.ModeRC} {
		t.Run(mode.String(), func(t *testing.T) { f(t, mode) })
	}
}

func TestBasics(t *testing.T) {
	modes(t, func(t *testing.T, mode mm.Mode) {
		s := newSuite[int, string](mode)
		if _, ok := s.Find(1); ok {
			t.Fatal("Find on empty skip list reported a hit")
		}
		if !s.Insert(1, "one") {
			t.Fatal("first Insert failed")
		}
		if s.Insert(1, "uno") {
			t.Fatal("duplicate Insert succeeded")
		}
		if v, ok := s.Find(1); !ok || v != "one" {
			t.Fatalf("Find(1) = %q,%v; want one,true", v, ok)
		}
		if !s.Delete(1) {
			t.Fatal("Delete failed")
		}
		if s.Delete(1) {
			t.Fatal("Delete of absent key succeeded")
		}
		if _, ok := s.Find(1); ok {
			t.Fatal("Find after Delete reported a hit")
		}
	})
}

func TestManyKeysAscendingOrder(t *testing.T) {
	modes(t, func(t *testing.T, mode mm.Mode) {
		const n = 500
		s := newSuite[int, int](mode, WithSeed(42))
		perm := rand.New(rand.NewSource(3)).Perm(n)
		for _, k := range perm {
			if !s.Insert(k, k*2) {
				t.Fatalf("Insert(%d) failed", k)
			}
		}
		if got := s.Len(); got != n {
			t.Fatalf("Len = %d, want %d", got, n)
		}
		for k := 0; k < n; k++ {
			if v, ok := s.Find(k); !ok || v != k*2 {
				t.Fatalf("Find(%d) = %d,%v; want %d,true", k, v, ok, k*2)
			}
		}
		prev := -1
		s.Range(func(k, v int) bool {
			if k <= prev {
				t.Fatalf("Range out of order: %d after %d", k, prev)
			}
			prev = k
			return true
		})
	})
}

// TestLevelSubsetProperty checks §4.1's structural requirement after an
// insert-only workload: "higher level lists contain a subset of the cells
// in lower level lists".
func TestLevelSubsetProperty(t *testing.T) {
	const n = 600
	s := newSuite[int, int](mm.ModeGC, WithSeed(7))
	for k := 0; k < n; k++ {
		s.Insert(k, k)
	}
	keysAt := func(level int) map[int]bool {
		set := make(map[int]bool)
		items := s.Level(level).Items()
		for i := range items {
			set[items[i].Key] = true
		}
		return set
	}
	lower := keysAt(0)
	if len(lower) != n {
		t.Fatalf("bottom level has %d keys, want %d", len(lower), n)
	}
	for i := 1; i < s.Levels(); i++ {
		upper := keysAt(i)
		for k := range upper {
			if !lower[k] {
				t.Fatalf("level %d contains key %d missing from level %d", i, k, i-1)
			}
		}
		if len(upper) >= len(lower) && len(lower) > 0 && i <= 4 {
			t.Fatalf("level %d (%d keys) not smaller than level %d (%d keys)", i, len(upper), i-1, len(lower))
		}
		lower = upper
	}
	// With p=1/2, level 1 should hold roughly half the keys.
	l1 := len(keysAt(1))
	if l1 < n/4 || l1 > 3*n/4 {
		t.Fatalf("level 1 holds %d of %d keys; tower heights look broken", l1, n)
	}
	// Every level must individually be a structurally sound list.
	for i := 0; i < s.Levels(); i++ {
		if err := s.Level(i).CheckQuiescent(); err != nil {
			t.Fatalf("level %d: %v", i, err)
		}
	}
}

func TestDeleteRemovesIndexCells(t *testing.T) {
	modes(t, func(t *testing.T, mode mm.Mode) {
		const n = 200
		s := newSuite[int, int](mode, WithSeed(11))
		for k := 0; k < n; k++ {
			s.Insert(k, k)
		}
		for k := 0; k < n; k++ {
			if !s.Delete(k) {
				t.Fatalf("Delete(%d) failed", k)
			}
		}
		for i := 0; i < s.Levels(); i++ {
			if got := s.Level(i).Len(); got != 0 {
				t.Fatalf("level %d still has %d cells after deleting every key", i, got)
			}
		}
	})
}

func TestRCLeakFreeAfterChurnAndClose(t *testing.T) {
	s := newSuite[int, int](mm.ModeRC, WithSeed(13))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		k := rng.Intn(128)
		if rng.Intn(2) == 0 {
			s.Insert(k, k)
		} else {
			s.Delete(k)
		}
	}
	rc := s.manager.(*mm.RC[item[int, int]])
	s.Close()
	if live := rc.Stats().Live(); live != 0 {
		t.Fatalf("live cells after Close = %d, want 0", live)
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	modes(t, func(t *testing.T, mode mm.Mode) {
		const (
			goroutines = 8
			perG       = 150
		)
		s := newSuite[int, int](mode)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					k := g*perG + i
					if !s.Insert(k, k) {
						t.Errorf("Insert(%d) failed", k)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for k := 0; k < goroutines*perG; k++ {
			if v, ok := s.Find(k); !ok || v != k {
				t.Fatalf("Find(%d) = %d,%v", k, v, ok)
			}
		}
	})
}

func TestConcurrentSameKeyOps(t *testing.T) {
	modes(t, func(t *testing.T, mode mm.Mode) {
		const (
			goroutines = 8
			keys       = 40
		)
		s := newSuite[int, int](mode)
		var wins atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < keys; k++ {
					if s.Insert(k, g) {
						wins.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
		if got := wins.Load(); got != keys {
			t.Fatalf("%d contended inserts won, want %d", got, keys)
		}
		wins.Store(0)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < keys; k++ {
					if s.Delete(k) {
						wins.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		if got := wins.Load(); got != keys {
			t.Fatalf("%d contended deletes won, want %d", got, keys)
		}
		if got := s.Len(); got != 0 {
			t.Fatalf("Len = %d after deleting everything, want 0", got)
		}
	})
}

func TestConcurrentMixedChurnConservation(t *testing.T) {
	iters := 2500
	if testing.Short() {
		iters = 250
	}
	iters = testenv.Iters(iters)
	modes(t, func(t *testing.T, mode mm.Mode) {
		const (
			goroutines = 8
			keyspace   = 96
		)
		s := newSuite[int, int](mode)
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
						if s.Insert(k, k) {
							inserts.Add(1)
						}
					case 1:
						if s.Delete(k) {
							deletes.Add(1)
						}
					default:
						if v, ok := s.Find(k); ok && v != k {
							t.Errorf("Find(%d) returned foreign value %d", k, v)
							return
						}
					}
				}
			}(int64(g + 1))
		}
		wg.Wait()
		remaining := 0
		for k := 0; k < keyspace; k++ {
			if _, ok := s.Find(k); ok {
				remaining++
			}
		}
		if got, want := inserts.Load()-deletes.Load(), int64(remaining); got != want {
			t.Fatalf("inserts-deletes = %d, but %d keys remain", got, want)
		}
		if err := s.Level(0).CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
		items := s.Level(0).Items()
		for i := 1; i < len(items); i++ {
			if items[i-1].Key >= items[i].Key {
				t.Fatalf("bottom level unsorted: %d then %d", items[i-1].Key, items[i].Key)
			}
		}
	})
}

func TestHeightDistribution(t *testing.T) {
	s := newSuite[int, int](mm.ModeGC, WithSeed(99), WithMaxLevel(20))
	const draws = 1 << 14
	counts := make([]int, 21)
	for i := 0; i < draws; i++ {
		h := s.height()
		if h < 1 || h > 20 {
			t.Fatalf("height %d out of range", h)
		}
		counts[h]++
	}
	if counts[1] < draws/3 || counts[1] > 2*draws/3 {
		t.Fatalf("P(height=1) ≈ %f, want ≈ 0.5", float64(counts[1])/draws)
	}
	if counts[2] < draws/8 || counts[2] > draws/2 {
		t.Fatalf("P(height=2) ≈ %f, want ≈ 0.25", float64(counts[2])/draws)
	}
}

func TestMatchesMapModel(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint8
	}
	f := func(ops []op) bool {
		s := newSuite[int, int](mm.ModeRC, WithMaxLevel(4))
		model := map[int]int{}
		v := 0
		for _, o := range ops {
			k := int(o.Key % 24)
			switch o.Kind % 3 {
			case 0:
				v++
				_, exists := model[k]
				if got := s.Insert(k, v); got != !exists {
					return false
				}
				if !exists {
					model[k] = v
				}
			case 1:
				_, exists := model[k]
				if got := s.Delete(k); got != exists {
					return false
				}
				delete(model, k)
			default:
				mv, exists := model[k]
				got, ok := s.Find(k)
				if ok != exists || (ok && got != mv) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
