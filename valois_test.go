package valois_test

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"valois"
)

func modes(t *testing.T, f func(t *testing.T, mode valois.MemoryMode)) {
	t.Helper()
	for _, mode := range []valois.MemoryMode{valois.GC, valois.RC} {
		t.Run(mode.String(), func(t *testing.T) { f(t, mode) })
	}
}

func TestListPublicAPI(t *testing.T) {
	modes(t, func(t *testing.T, mode valois.MemoryMode) {
		l := valois.NewList[string](mode)
		c := l.Cursor()
		c.Insert("world")
		c.Reset()
		c.Insert("hello")
		c.Reset()

		var got []string
		for !c.End() {
			got = append(got, c.Item())
			c.Next()
		}
		if len(got) != 2 || got[0] != "hello" || got[1] != "world" {
			t.Fatalf("items = %v, want [hello world]", got)
		}

		c.Reset()
		if !c.TryDelete() {
			t.Fatal("TryDelete failed on an idle list")
		}
		c.Close()
		if items := l.Items(); len(items) != 1 || items[0] != "world" {
			t.Fatalf("items = %v, want [world]", items)
		}
		l.Close()
	})
}

func TestListCursorSurvivesConcurrentDeletion(t *testing.T) {
	l := valois.NewList[int](valois.RC)
	w := l.Cursor()
	w.Insert(2)
	w.Reset()
	w.Insert(1)

	parked := l.Cursor() // visiting 1
	deleter := l.Cursor()
	if !deleter.TryDelete() {
		t.Fatal("delete failed")
	}
	deleter.Close()

	if !parked.OnDeleted() {
		t.Fatal("parked cursor should see its item deleted")
	}
	if got := parked.Item(); got != 1 {
		t.Fatalf("deleted item reads %d, want 1 (persistence)", got)
	}
	if !parked.Next() || parked.Item() != 2 {
		t.Fatal("cursor could not continue past the deleted item")
	}
	parked.Close()
	w.Close()
}

func TestListConcurrentPublicAPI(t *testing.T) {
	modes(t, func(t *testing.T, mode valois.MemoryMode) {
		l := valois.NewList[int](mode)
		var wg sync.WaitGroup
		const (
			goroutines = 6
			perG       = 300
		)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				c := l.Cursor()
				defer c.Close()
				for i := 0; i < perG; i++ {
					c.Reset()
					c.Insert(g*perG + i)
				}
			}(g)
		}
		wg.Wait()
		items := l.Items()
		if len(items) != goroutines*perG {
			t.Fatalf("got %d items, want %d", len(items), goroutines*perG)
		}
		sort.Ints(items)
		for i, v := range items {
			if v != i {
				t.Fatalf("item set corrupted at %d: %d", i, v)
			}
		}
	})
}

func dictionaries(mode valois.MemoryMode) map[string]valois.Dictionary[int, int] {
	return map[string]valois.Dictionary[int, int]{
		"sortedlist": valois.NewSortedListDict[int, int](mode),
		"hash":       valois.NewHashDict[int, int](16, mode, valois.HashInt),
		"skiplist":   valois.NewSkipListDict[int, int](mode),
		"bst":        valois.NewBSTDict[int, int](mode),
	}
}

func TestDictionariesPublicAPI(t *testing.T) {
	modes(t, func(t *testing.T, mode valois.MemoryMode) {
		for name, d := range dictionaries(mode) {
			t.Run(name, func(t *testing.T) {
				const n = 100
				perm := rand.New(rand.NewSource(1)).Perm(n)
				for _, k := range perm {
					if !d.Insert(k, k*7) {
						t.Fatalf("Insert(%d) failed", k)
					}
				}
				if d.Insert(perm[0], 0) {
					t.Fatal("duplicate insert succeeded")
				}
				for k := 0; k < n; k++ {
					if v, ok := d.Find(k); !ok || v != k*7 {
						t.Fatalf("Find(%d) = %d,%v", k, v, ok)
					}
				}
				for k := 0; k < n; k += 3 {
					if !d.Delete(k) {
						t.Fatalf("Delete(%d) failed", k)
					}
				}
				for k := 0; k < n; k++ {
					_, ok := d.Find(k)
					if want := k%3 != 0; ok != want {
						t.Fatalf("Find(%d) = %v, want %v", k, ok, want)
					}
				}
			})
		}
	})
}

func TestOrderedDictionariesRange(t *testing.T) {
	ordered := map[string]valois.OrderedDictionary[int, string]{
		"sortedlist": valois.NewSortedListDict[int, string](valois.GC),
		"skiplist":   valois.NewSkipListDict[int, string](valois.GC),
		"bst":        valois.NewBSTDict[int, string](valois.GC),
	}
	for name, d := range ordered {
		t.Run(name, func(t *testing.T) {
			for _, k := range []int{9, 3, 7, 1, 5} {
				d.Insert(k, "v")
			}
			var keys []int
			d.Range(func(k int, _ string) bool {
				keys = append(keys, k)
				return true
			})
			want := []int{1, 3, 5, 7, 9}
			if len(keys) != len(want) {
				t.Fatalf("keys = %v, want %v", keys, want)
			}
			for i := range want {
				if keys[i] != want[i] {
					t.Fatalf("keys = %v, want %v", keys, want)
				}
			}
			if got := d.Len(); got != 5 {
				t.Fatalf("Len = %d, want 5", got)
			}
		})
	}
}

func TestQueuePublicAPI(t *testing.T) {
	q := valois.NewQueue[int]()
	const (
		producers = 4
		perP      = 500
	)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				q.Enqueue(p*perP + i)
			}
		}(p)
	}
	wg.Wait()
	seen := make(map[int]bool)
	for {
		v, ok := q.Dequeue()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("value %d dequeued twice", v)
		}
		seen[v] = true
	}
	if len(seen) != producers*perP {
		t.Fatalf("drained %d values, want %d", len(seen), producers*perP)
	}
	if !q.Empty() {
		t.Fatal("queue should be empty")
	}
}

func TestStackPublicAPI(t *testing.T) {
	s := valois.NewStack[int]()
	s.Push(1)
	s.Push(2)
	if v, ok := s.Pop(); !ok || v != 2 {
		t.Fatalf("Pop = %d,%v; want 2,true", v, ok)
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}

func TestMemoryModeString(t *testing.T) {
	if valois.GC.String() != "gc" || valois.RC.String() != "rc" || valois.EBR.String() != "ebr" {
		t.Fatalf("mode names = %q/%q/%q, want gc/rc/ebr", valois.GC, valois.RC, valois.EBR)
	}
}
