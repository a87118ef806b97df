package core

import (
	"testing"

	"valois/internal/mm"
)

func buildList(t *testing.T, m mm.Manager[int], items ...int) *List[int] {
	t.Helper()
	l := New(m)
	c := l.NewCursor()
	defer c.Close()
	for i := len(items) - 1; i >= 0; i-- {
		c.Reset()
		q, a := l.AllocInsertNodes(items[i])
		if !c.TryInsert(q, a) {
			t.Fatalf("setup insert of %d failed", items[i])
		}
		l.ReleaseNodes(q, a)
	}
	return l
}

func TestCursorAtResumesFromCell(t *testing.T) {
	managers(t, func(t *testing.T, m mm.Manager[int]) {
		l := buildList(t, m, 1, 2, 3, 4)
		// Walk to 2 and capture the cell.
		scout := l.NewCursor()
		scout.Next()
		cell := scout.Target()
		m.AddRef(cell) // hold it beyond the scout's lifetime
		scout.Close()

		var c Cursor[int]
		l.InitCursorAt(&c, cell)
		m.Release(cell)
		if got := c.Item(); got != 3 {
			t.Fatalf("InitCursorAt(cell 2) visits %d, want 3 (first cell after it)", got)
		}
		if !c.Next() || c.Item() != 4 {
			t.Fatal("traversal from InitCursorAt position broken")
		}
		c.Close()
	})
}

func TestCursorAtFromDeletedCell(t *testing.T) {
	// Cell persistence (§2.2): resuming from a deleted cell lands on the
	// closest live position after it — the property the skip list's level
	// descent depends on.
	managers(t, func(t *testing.T, m mm.Manager[int]) {
		l := buildList(t, m, 1, 2, 3)
		scout := l.NewCursor()
		scout.Next() // at 2
		cell := scout.Target()
		m.AddRef(cell)
		if !scout.TryDelete() {
			t.Fatal("delete failed")
		}
		scout.Close()

		var c Cursor[int]
		l.InitCursorAt(&c, cell)
		m.Release(cell)
		if got := c.Item(); got != 3 {
			t.Fatalf("InitCursorAt(deleted 2) visits %d, want 3", got)
		}
		c.Close()
		if err := l.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCapacityBoundedListAllocFails(t *testing.T) {
	// A bounded RC manager makes AllocInsertNodes return nil,nil once
	// exhausted (Figure 17's NULL), and frees reopen capacity.
	m := mm.NewRC[int](mm.WithCapacity(6), mm.WithBatchSize(2))
	l := New(m) // consumes 3 cells (First, aux, Last)
	c := l.NewCursor()
	defer c.Close()

	q, a := l.AllocInsertNodes(1) // 2 more cells
	if q == nil {
		t.Fatal("first insert pair should fit")
	}
	if !c.TryInsert(q, a) {
		t.Fatal("insert failed")
	}
	l.ReleaseNodes(q, a)

	if q2, a2 := l.AllocInsertNodes(2); q2 != nil || a2 != nil {
		t.Fatal("AllocInsertNodes beyond capacity should return nil, nil")
	}

	// Delete the item; its two cells return to the free list (after the
	// cursor lets go), making room again.
	c.Reset()
	if !c.TryDelete() {
		t.Fatal("delete failed")
	}
	c.Reset() // drop the cursor's references to the deleted cell
	if q3, a3 := l.AllocInsertNodes(3); q3 == nil || a3 == nil {
		t.Fatal("AllocInsertNodes after delete should succeed again")
	} else {
		l.ReleaseNodes(q3, a3)
	}
}

func TestDisableAuxRemovalStillCorrect(t *testing.T) {
	// With Update's pair removal off, chains are cleaned only by
	// TryDelete; semantics must be unchanged and the structure must still
	// quiesce clean (the collapse path guarantees it).
	m := mm.NewGC[int]()
	l := New(m)
	l.DisableAuxRemoval()
	l.EnableStats()
	c := l.NewCursor()
	defer c.Close()
	for i := 0; i < 20; i++ {
		q, a := l.AllocInsertNodes(i)
		if !c.TryInsert(q, a) {
			t.Fatal("insert failed")
		}
		l.ReleaseNodes(q, a)
		c.Update()
	}
	for i := 0; i < 20; i++ {
		c.Reset()
		if !c.TryDelete() {
			t.Fatal("delete failed")
		}
	}
	if got := l.Len(); got != 0 {
		t.Fatalf("Len = %d, want 0", got)
	}
	if err := l.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Snapshot().AuxRemovals; got != 0 {
		t.Fatalf("AuxRemovals = %d with removal disabled, want 0", got)
	}
}

func TestValidReflectsCursorState(t *testing.T) {
	m := mm.NewGC[int]()
	l := buildList(t, m, 1)
	c := l.NewCursor()
	defer c.Close()
	if !c.Valid() {
		t.Fatal("fresh cursor invalid")
	}
	if c.List() != l {
		t.Fatal("List() returned wrong list")
	}
	if l.First().Kind() != mm.KindFirst || l.Last().Kind() != mm.KindLast {
		t.Fatal("dummy kinds wrong")
	}
}
