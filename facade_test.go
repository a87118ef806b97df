package valois_test

import (
	"sync"
	"testing"

	"valois"
)

func TestManagedQueueFacade(t *testing.T) {
	for _, mode := range []valois.MemoryMode{valois.GC, valois.RC} {
		t.Run(mode.String(), func(t *testing.T) {
			q := valois.NewManagedQueue[string](mode)
			if !q.Empty() {
				t.Fatal("fresh queue not empty")
			}
			q.Enqueue("a")
			q.Enqueue("b")
			if got := q.Len(); got != 2 {
				t.Fatalf("Len = %d, want 2", got)
			}
			if v, ok := q.Dequeue(); !ok || v != "a" {
				t.Fatalf("Dequeue = %q,%v; want a,true", v, ok)
			}
			if v, ok := q.Dequeue(); !ok || v != "b" {
				t.Fatalf("Dequeue = %q,%v; want b,true", v, ok)
			}
			if _, ok := q.Dequeue(); ok {
				t.Fatal("Dequeue on empty queue reported a value")
			}
			q.Close()
		})
	}
}

func TestManagedQueueConcurrent(t *testing.T) {
	q := valois.NewManagedQueue[int](valois.RC)
	const (
		producers = 4
		perP      = 1000
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
	q.Close()
}
