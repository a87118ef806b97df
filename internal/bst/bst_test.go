package bst

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
		tr := New[int, string](mode)
		if _, ok := tr.Find(5); ok {
			t.Fatal("Find on empty tree reported a hit")
		}
		if !tr.Insert(5, "five") {
			t.Fatal("first Insert failed")
		}
		if tr.Insert(5, "cinq") {
			t.Fatal("duplicate Insert succeeded")
		}
		if v, ok := tr.Find(5); !ok || v != "five" {
			t.Fatalf("Find(5) = %q,%v; want five,true", v, ok)
		}
		if !tr.Delete(5) {
			t.Fatal("Delete failed")
		}
		if tr.Delete(5) {
			t.Fatal("Delete of absent key succeeded")
		}
		if _, ok := tr.Find(5); ok {
			t.Fatal("Find after Delete reported a hit")
		}
		if err := tr.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestInsertShapesAndOrder(t *testing.T) {
	modes(t, func(t *testing.T, mode mm.Mode) {
		const n = 300
		tr := New[int, int](mode)
		perm := rand.New(rand.NewSource(5)).Perm(n)
		for _, k := range perm {
			if !tr.Insert(k, k) {
				t.Fatalf("Insert(%d) failed", k)
			}
		}
		if err := tr.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
		keys := tr.Keys()
		if len(keys) != n {
			t.Fatalf("Keys returned %d keys, want %d", len(keys), n)
		}
		for i, k := range keys {
			if k != i {
				t.Fatalf("keys not in order at %d: %v", i, keys[:i+1])
			}
		}
	})
}

// TestDeleteShapes exercises every deletion case of §4.2: leaf, one child
// (left and right), two children (Figure 14), and deletion at the root.
func TestDeleteShapes(t *testing.T) {
	type shape struct {
		name    string
		inserts []int
		del     int
		want    []int
	}
	shapes := []shape{
		{name: "leaf", inserts: []int{10, 5, 15}, del: 5, want: []int{10, 15}},
		{name: "one-child-left", inserts: []int{10, 5, 3}, del: 5, want: []int{3, 10}},
		{name: "one-child-right", inserts: []int{10, 5, 7}, del: 5, want: []int{7, 10}},
		{name: "two-children", inserts: []int{10, 5, 15, 3, 7, 12, 20}, del: 5, want: []int{3, 7, 10, 12, 15, 20}},
		{name: "two-children-deep-successor", inserts: []int{10, 5, 20, 15, 12, 17, 11}, del: 10, want: []int{5, 11, 12, 15, 17, 20}},
		{name: "root-leaf", inserts: []int{10}, del: 10, want: nil},
		{name: "root-one-child", inserts: []int{10, 5}, del: 10, want: []int{5}},
		{name: "root-two-children", inserts: []int{10, 5, 15}, del: 10, want: []int{5, 15}},
	}
	modes(t, func(t *testing.T, mode mm.Mode) {
		for _, tt := range shapes {
			t.Run(tt.name, func(t *testing.T) {
				tr := New[int, int](mode)
				for _, k := range tt.inserts {
					if !tr.Insert(k, k) {
						t.Fatalf("Insert(%d) failed", k)
					}
				}
				if !tr.Delete(tt.del) {
					t.Fatalf("Delete(%d) failed", tt.del)
				}
				if err := tr.CheckQuiescent(); err != nil {
					t.Fatal(err)
				}
				got := tr.Keys()
				if len(got) != len(tt.want) {
					t.Fatalf("keys = %v, want %v", got, tt.want)
				}
				for i := range got {
					if got[i] != tt.want[i] {
						t.Fatalf("keys = %v, want %v", got, tt.want)
					}
				}
				for _, k := range tt.want {
					if v, ok := tr.Find(k); !ok || v != k {
						t.Fatalf("Find(%d) = %d,%v after deletion", k, v, ok)
					}
				}
				if _, ok := tr.Find(tt.del); ok {
					t.Fatalf("deleted key %d still found", tt.del)
				}
			})
		}
	})
}

func TestDeleteEveryKeyEveryOrder(t *testing.T) {
	// Build a 7-node tree and delete the keys in many random orders; every
	// intermediate tree must stay ordered and consistent.
	base := []int{40, 20, 60, 10, 30, 50, 70}
	rng := rand.New(rand.NewSource(9))
	modes(t, func(t *testing.T, mode mm.Mode) {
		for trial := 0; trial < 30; trial++ {
			tr := New[int, int](mode)
			for _, k := range base {
				tr.Insert(k, k)
			}
			order := rng.Perm(len(base))
			alive := make(map[int]bool, len(base))
			for _, k := range base {
				alive[k] = true
			}
			for _, i := range order {
				k := base[i]
				if !tr.Delete(k) {
					t.Fatalf("trial %d: Delete(%d) failed", trial, k)
				}
				delete(alive, k)
				if err := tr.CheckQuiescent(); err != nil {
					t.Fatalf("trial %d after deleting %d: %v", trial, k, err)
				}
				for _, kk := range base {
					_, ok := tr.Find(kk)
					if ok != alive[kk] {
						t.Fatalf("trial %d: Find(%d) = %v, want %v", trial, kk, ok, alive[kk])
					}
				}
			}
		}
	})
}

func TestMatchesMapModel(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint8
	}
	f := func(ops []op) bool {
		tr := New[int, int](mm.ModeRC)
		model := map[int]int{}
		v := 0
		for _, o := range ops {
			k := int(o.Key % 24)
			switch o.Kind % 3 {
			case 0:
				v++
				_, exists := model[k]
				if got := tr.Insert(k, v); got != !exists {
					return false
				}
				if !exists {
					model[k] = v
				}
			case 1:
				_, exists := model[k]
				if got := tr.Delete(k); got != exists {
					return false
				}
				delete(model, k)
			default:
				mv, exists := model[k]
				got, ok := tr.Find(k)
				if ok != exists || (ok && got != mv) {
					return false
				}
			}
		}
		if tr.CheckQuiescent() != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRCLeakFree(t *testing.T) {
	tr := New[int, int](mm.ModeRC)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4000; i++ {
		k := rng.Intn(96)
		if rng.Intn(2) == 0 {
			tr.Insert(k, k)
		} else {
			tr.Delete(k)
		}
	}
	if err := tr.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	rc := tr.Manager().(*mm.RC[item[int, int]])
	tr.Close()
	if live := rc.Stats().Live(); live != 0 {
		t.Fatalf("live cells after Close = %d, want 0", live)
	}
}

func TestConcurrentFindInsert(t *testing.T) {
	// The workload §4.2 analyzes: Find and Insert only.
	modes(t, func(t *testing.T, mode mm.Mode) {
		const (
			goroutines = 8
			perG       = 200
		)
		tr := New[int, int](mode)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g + 1)))
				for i := 0; i < perG; i++ {
					k := g*perG + i
					if !tr.Insert(k, k) {
						t.Errorf("Insert(%d) failed", k)
						return
					}
					probe := rng.Intn(k + 1)
					if v, ok := tr.Find(probe); ok && v != probe {
						t.Errorf("Find(%d) returned foreign value %d", probe, v)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if err := tr.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < goroutines*perG; k++ {
			if v, ok := tr.Find(k); !ok || v != k {
				t.Fatalf("Find(%d) = %d,%v", k, v, ok)
			}
		}
	})
}

func TestConcurrentSameKeyInsert(t *testing.T) {
	modes(t, func(t *testing.T, mode mm.Mode) {
		const (
			goroutines = 8
			keys       = 40
		)
		tr := New[int, int](mode)
		var wins atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := 0; k < keys; k++ {
					if tr.Insert(k, g) {
						wins.Add(1)
					}
				}
			}(g)
		}
		wg.Wait()
		if got := wins.Load(); got != keys {
			t.Fatalf("%d contended inserts won, want %d", got, keys)
		}
		if err := tr.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestConcurrentDeleteDistinct(t *testing.T) {
	// Concurrent deleters on distinct keys, covering concurrent
	// leaf/one-child/two-children deletions that interact through shared
	// parents and successors.
	modes(t, func(t *testing.T, mode mm.Mode) {
		const n = 600
		tr := New[int, int](mode)
		perm := rand.New(rand.NewSource(21)).Perm(n)
		for _, k := range perm {
			tr.Insert(k, k)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := g; k < n; k += 8 {
					if k%2 == 0 {
						if !tr.Delete(k) {
							t.Errorf("Delete(%d) failed", k)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		if err := tr.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < n; k++ {
			_, ok := tr.Find(k)
			if want := k%2 == 1; ok != want {
				t.Fatalf("Find(%d) = %v, want %v", k, ok, want)
			}
		}
	})
}

func TestConcurrentMixedChurn(t *testing.T) {
	iters := 2000
	if testing.Short() {
		iters = 200
	}
	iters = testenv.Iters(iters)
	modes(t, func(t *testing.T, mode mm.Mode) {
		const (
			goroutines = 8
			keyspace   = 64
		)
		tr := New[int, int](mode)
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
						if tr.Insert(k, k) {
							inserts.Add(1)
						}
					case 1:
						if tr.Delete(k) {
							deletes.Add(1)
						}
					default:
						if v, ok := tr.Find(k); ok && v != k {
							t.Errorf("Find(%d) returned foreign value %d", k, v)
							return
						}
					}
				}
			}(int64(g + 1))
		}
		wg.Wait()
		if err := tr.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
		remaining := 0
		for k := 0; k < keyspace; k++ {
			if _, ok := tr.Find(k); ok {
				remaining++
			}
		}
		if got, want := inserts.Load()-deletes.Load(), int64(remaining); got != want {
			t.Fatalf("inserts-deletes = %d, but %d keys remain", got, want)
		}
		if got := tr.Len(); got != remaining {
			t.Fatalf("Len = %d, want %d", got, remaining)
		}
	})
}

func TestRangeEarlyStop(t *testing.T) {
	tr := New[int, int](mm.ModeGC)
	for _, k := range []int{4, 2, 6, 1, 3, 5, 7} {
		tr.Insert(k, k)
	}
	var visited []int
	tr.Range(func(k, _ int) bool {
		visited = append(visited, k)
		return len(visited) < 3
	})
	if len(visited) != 3 || visited[0] != 1 || visited[1] != 2 || visited[2] != 3 {
		t.Fatalf("visited = %v, want [1 2 3]", visited)
	}
}

// TestHelpCompletesClaimedDeletion stages the stalled-deleter scenario
// deterministically: a cell is claimed (as a crashed deleter would leave
// it) and a second Delete of the same key must help the deletion to
// completion and report false.
func TestHelpCompletesClaimedDeletion(t *testing.T) {
	modes(t, func(t *testing.T, mode mm.Mode) {
		tr := New[int, int](mode)
		for _, k := range []int{10, 5, 15} {
			tr.Insert(k, k)
		}
		m := tr.manager
		// Tombstone and claim the leaf 5 exactly as Delete would, then
		// "stall".
		n, a := tr.locate(5)
		if n == nil {
			t.Fatal("locate(5) did not find the cell")
		}
		if _, ok := n.Item.val.Tombstone(); !ok {
			t.Fatal("tombstone failed on an idle tree")
		}
		d := m.Alloc()
		d.SetKind(mm.KindAux)
		d.StoreNext(a)
		m.AddRef(a)
		if !n.CASBackLink(nil, d) {
			t.Fatal("claim failed on an idle tree")
		}

		// Another process deletes the same key: it must lose the claim,
		// help the stalled deletion to completion, and report false.
		if tr.Delete(5) {
			t.Fatal("second deleter reported true for a cell claimed by another")
		}
		if _, ok := tr.Find(5); ok {
			t.Fatal("key 5 still present after helped deletion")
		}
		if got := tr.WorkStats().Helps; got < 1 {
			t.Fatalf("Helps = %d, want ≥ 1", got)
		}
		m.Release(n)
		m.Release(a)
		if err := tr.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
		if rc, ok := m.(*mm.RC[item[int, int]]); ok {
			tr.Close()
			if live := rc.Stats().Live(); live != 0 {
				t.Fatalf("live cells after Close = %d, want 0", live)
			}
		}
	})
}

// TestInsertIntoCircuitedSlotRetries stages the Figure-2-style race for
// the tree: an insertion whose chosen empty slot belongs to a cell that a
// stalled deleter has already short-circuited must detect the circuit,
// help, and insert at the post-deletion position.
func TestInsertIntoCircuitedSlotRetries(t *testing.T) {
	modes(t, func(t *testing.T, mode mm.Mode) {
		tr := New[int, int](mode)
		for _, k := range []int{10, 5} {
			tr.Insert(k, k)
		}
		m := tr.manager
		n, a := tr.locate(5)
		d := m.Alloc()
		d.SetKind(mm.KindAux)
		d.StoreNext(a)
		m.AddRef(a)
		if !n.CASBackLink(nil, d) {
			t.Fatal("claim failed")
		}
		// Run the deletion only far enough to short-circuit the empty
		// sides, but do not splice: simulate a deleter stalled mid-way.
		left, right := n.Item.Left, n.Item.Right
		if !tr.casEdge(left, tr.empty, a) {
			t.Fatal("left short-circuit failed")
		}
		if !tr.casEdge(right, tr.empty, a) {
			t.Fatal("right short-circuit failed")
		}

		// Inserting 3 would descend to 5's left slot, find the circuit,
		// help finish 5's deletion, and land under 10 instead.
		if !tr.Insert(3, 3) {
			t.Fatal("Insert(3) failed")
		}
		if _, ok := tr.Find(5); ok {
			t.Fatal("key 5 still present; helping did not complete the deletion")
		}
		if v, ok := tr.Find(3); !ok || v != 3 {
			t.Fatalf("Find(3) = %d,%v", v, ok)
		}
		if got := tr.WorkStats().Restarts; got < 1 {
			t.Fatalf("Restarts = %d, want ≥ 1", got)
		}
		m.Release(n)
		m.Release(a)
		if err := tr.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}
