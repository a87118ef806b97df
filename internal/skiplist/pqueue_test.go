package skiplist

import (
	"math/rand"
	"sync"
	"testing"

	"valois/internal/mm"
)

func TestMinAndDeleteMinSequential(t *testing.T) {
	modes(t, func(t *testing.T, mode mm.Mode) {
		s := newSuite[int, string](mode)
		if _, _, ok := s.Min(); ok {
			t.Fatal("Min on empty structure reported an item")
		}
		if _, _, ok := s.DeleteMin(); ok {
			t.Fatal("DeleteMin on empty structure reported an item")
		}
		for _, k := range []int{5, 1, 9, 3, 7} {
			s.Insert(k, "v")
		}
		if k, _, ok := s.Min(); !ok || k != 1 {
			t.Fatalf("Min = %d,%v; want 1,true", k, ok)
		}
		want := []int{1, 3, 5, 7, 9}
		for _, w := range want {
			k, v, ok := s.DeleteMin()
			if !ok || k != w || v != "v" {
				t.Fatalf("DeleteMin = %d,%q,%v; want %d", k, v, ok, w)
			}
		}
		if _, _, ok := s.DeleteMin(); ok {
			t.Fatal("DeleteMin after draining reported an item")
		}
		for i := 0; i < s.Levels(); i++ {
			if got := s.Level(i).Len(); got != 0 {
				t.Fatalf("level %d has %d cells after draining", i, got)
			}
		}
	})
}

func TestDeleteMinConcurrentDistinct(t *testing.T) {
	modes(t, func(t *testing.T, mode mm.Mode) {
		const n = 800
		s := newSuite[int, int](mode)
		perm := rand.New(rand.NewSource(4)).Perm(n)
		for _, k := range perm {
			s.Insert(k, k)
		}
		var mu sync.Mutex
		taken := make(map[int]bool, n)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k, v, ok := s.DeleteMin()
					if !ok {
						return
					}
					if v != k {
						t.Errorf("DeleteMin value %d for key %d", v, k)
						return
					}
					mu.Lock()
					if taken[k] {
						mu.Unlock()
						t.Errorf("key %d extracted twice", k)
						return
					}
					taken[k] = true
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if len(taken) != n {
			t.Fatalf("extracted %d distinct keys, want %d", len(taken), n)
		}
	})
}

func TestDeleteMinRoughPriorityOrder(t *testing.T) {
	// Under concurrency DeleteMin is linearizable per extraction but two
	// overlapping extractions may commit out of order with respect to
	// each other's return. Sequential extraction must be exactly sorted.
	s := newSuite[int, int](mm.ModeGC, WithSeed(9))
	perm := rand.New(rand.NewSource(11)).Perm(300)
	for _, k := range perm {
		s.Insert(k, k)
	}
	prev := -1
	for {
		k, _, ok := s.DeleteMin()
		if !ok {
			break
		}
		if k <= prev {
			t.Fatalf("DeleteMin out of order: %d after %d", k, prev)
		}
		prev = k
	}
}

func TestRangeFrom(t *testing.T) {
	s := newSuite[int, int](mm.ModeGC)
	for k := 0; k < 100; k += 2 { // evens only
		s.Insert(k, k)
	}
	var keys []int
	s.RangeFrom(31, func(k, _ int) bool {
		keys = append(keys, k)
		return len(keys) < 5
	})
	want := []int{32, 34, 36, 38, 40}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
	// Start beyond the maximum: no items.
	called := false
	s.RangeFrom(1000, func(int, int) bool { called = true; return true })
	if called {
		t.Fatal("RangeFrom past the end visited items")
	}
}
