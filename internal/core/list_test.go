package core

import (
	"fmt"
	"testing"

	"valois/internal/mm"
)

// managers runs a subtest under both memory managers so every list
// behaviour is exercised with reference counting and with GC reclamation.
func managers(t *testing.T, f func(t *testing.T, m mm.Manager[int])) {
	t.Helper()
	t.Run("gc", func(t *testing.T) { f(t, mm.NewGC[int]()) })
	t.Run("rc", func(t *testing.T) { f(t, mm.NewRC[int]()) })
}

func TestEmptyList(t *testing.T) {
	managers(t, func(t *testing.T, m mm.Manager[int]) {
		l := New(m)
		if err := l.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
		if got := l.Len(); got != 0 {
			t.Fatalf("Len = %d, want 0", got)
		}
		c := l.NewCursor()
		if !c.End() {
			t.Fatal("cursor on empty list must be at end-of-list position")
		}
		if c.Next() {
			t.Fatal("Next at end-of-list must return false (Fig 7 line 2)")
		}
		c.Close()
	})
}

func TestListCloseReclaimsEverything(t *testing.T) {
	m := mm.NewRC[int]()
	l := New(m)
	c := l.NewCursor()
	for i := 0; i < 10; i++ {
		q, a := l.AllocInsertNodes(i)
		if !c.TryInsert(q, a) {
			t.Fatal("uncontended TryInsert failed")
		}
		l.ReleaseNodes(q, a)
		c.Update()
	}
	c.Close()
	if got := l.Len(); got != 10 {
		t.Fatalf("Len = %d, want 10", got)
	}
	l.Close()
	if s := m.Stats(); s.Live() != 0 {
		t.Fatalf("live cells after Close = %d, want 0", s.Live())
	}
}

func insertAll(t *testing.T, l *List[int], items ...int) {
	t.Helper()
	c := l.NewCursor()
	defer c.Close()
	for _, item := range items {
		// Insert each item at the front; the resulting order is the
		// reverse of the argument order.
		c.Reset()
		q, a := l.AllocInsertNodes(item)
		if !c.TryInsert(q, a) {
			t.Fatalf("uncontended TryInsert(%d) failed", item)
		}
		l.ReleaseNodes(q, a)
	}
}

func equalItems(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestInsertAtFront(t *testing.T) {
	managers(t, func(t *testing.T, m mm.Manager[int]) {
		l := New(m)
		insertAll(t, l, 3, 2, 1)
		if got := l.Items(); !equalItems(got, []int{1, 2, 3}) {
			t.Fatalf("items = %v, want [1 2 3]", got)
		}
		if err := l.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestInsertAtEnd(t *testing.T) {
	managers(t, func(t *testing.T, m mm.Manager[int]) {
		l := New(m)
		c := l.NewCursor()
		defer c.Close()
		for i := 1; i <= 4; i++ {
			// Walk to the end-of-list position and insert there: §2.1
			// allows insertion at the position preceding any cursor,
			// including the distinguished end position.
			c.Reset()
			for !c.End() {
				c.Next()
			}
			q, a := l.AllocInsertNodes(i)
			if !c.TryInsert(q, a) {
				t.Fatalf("append %d failed", i)
			}
			l.ReleaseNodes(q, a)
		}
		if got := l.Items(); !equalItems(got, []int{1, 2, 3, 4}) {
			t.Fatalf("items = %v, want [1 2 3 4]", got)
		}
		if err := l.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestInsertMiddle(t *testing.T) {
	managers(t, func(t *testing.T, m mm.Manager[int]) {
		l := New(m)
		insertAll(t, l, 30, 10)
		c := l.NewCursor()
		defer c.Close()
		if c.Item() != 10 {
			t.Fatalf("first item = %d, want 10", c.Item())
		}
		c.Next() // now visiting 30
		q, a := l.AllocInsertNodes(20)
		if !c.TryInsert(q, a) {
			t.Fatal("middle insert failed")
		}
		l.ReleaseNodes(q, a)
		if got := l.Items(); !equalItems(got, []int{10, 20, 30}) {
			t.Fatalf("items = %v, want [10 20 30]", got)
		}
		if err := l.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTryInsertFailsOnInvalidCursor(t *testing.T) {
	managers(t, func(t *testing.T, m mm.Manager[int]) {
		l := New(m)
		insertAll(t, l, 1)
		c1 := l.NewCursor()
		defer c1.Close()
		// A second cursor inserts at the same position, invalidating c1.
		c2 := l.NewCursor()
		q2, a2 := l.AllocInsertNodes(99)
		if !c2.TryInsert(q2, a2) {
			t.Fatal("c2 insert failed")
		}
		l.ReleaseNodes(q2, a2)
		c2.Close()

		q1, a1 := l.AllocInsertNodes(7)
		if c1.TryInsert(q1, a1) {
			t.Fatal("TryInsert on an invalidated cursor must fail")
		}
		// Retry after Update, as Figure 12 does. Update repositions the
		// cursor on the next normal cell after its pre_aux — here the
		// newly inserted 99 — which is exactly why Figure 12 re-checks
		// the key's position before retrying.
		c1.Update()
		if got := c1.Item(); got != 99 {
			t.Fatalf("after Update cursor visits %d, want 99", got)
		}
		if !c1.TryInsert(q1, a1) {
			t.Fatal("TryInsert after Update failed")
		}
		l.ReleaseNodes(q1, a1)
		if got := l.Items(); !equalItems(got, []int{7, 99, 1}) {
			t.Fatalf("items = %v, want [7 99 1]", got)
		}
		if err := l.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDeleteOnly(t *testing.T) {
	managers(t, func(t *testing.T, m mm.Manager[int]) {
		l := New(m)
		insertAll(t, l, 42)
		c := l.NewCursor()
		if !c.TryDelete() {
			t.Fatal("uncontended TryDelete failed")
		}
		c.Close()
		if got := l.Len(); got != 0 {
			t.Fatalf("Len after delete = %d, want 0", got)
		}
		if err := l.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDeleteEachPosition(t *testing.T) {
	managers(t, func(t *testing.T, m mm.Manager[int]) {
		for del := 0; del < 3; del++ {
			t.Run(fmt.Sprintf("pos%d", del), func(t *testing.T) {
				l := New(m)
				insertAll(t, l, 2, 1, 0)
				c := l.NewCursor()
				defer c.Close()
				for i := 0; i < del; i++ {
					c.Next()
				}
				if got := c.Item(); got != del {
					t.Fatalf("cursor item = %d, want %d", got, del)
				}
				if !c.TryDelete() {
					t.Fatal("TryDelete failed")
				}
				var want []int
				for i := 0; i < 3; i++ {
					if i != del {
						want = append(want, i)
					}
				}
				if got := l.Items(); !equalItems(got, want) {
					t.Fatalf("items = %v, want %v", got, want)
				}
				if err := l.CheckQuiescent(); err != nil {
					t.Fatal(err)
				}
			})
		}
	})
}

func TestTryDeleteAtEndFails(t *testing.T) {
	managers(t, func(t *testing.T, m mm.Manager[int]) {
		l := New(m)
		c := l.NewCursor()
		defer c.Close()
		if c.TryDelete() {
			t.Fatal("TryDelete at the end-of-list position must fail")
		}
	})
}

func TestTryDeleteFailsOnInvalidCursor(t *testing.T) {
	managers(t, func(t *testing.T, m mm.Manager[int]) {
		l := New(m)
		insertAll(t, l, 1)
		c1 := l.NewCursor()
		defer c1.Close()
		c2 := l.NewCursor()
		// c2 deletes the cell c1 targets; both cursors share pre_aux, so
		// c1's subsequent Compare&Swap must fail.
		if !c2.TryDelete() {
			t.Fatal("c2 delete failed")
		}
		c2.Close()
		if c1.TryDelete() {
			t.Fatal("second TryDelete of the same cell must fail")
		}
	})
}

func TestExactlyOneDeleterWins(t *testing.T) {
	managers(t, func(t *testing.T, m mm.Manager[int]) {
		l := New(m)
		insertAll(t, l, 5)
		cursors := make([]*Cursor[int], 4)
		for i := range cursors {
			cursors[i] = l.NewCursor()
		}
		wins := 0
		for _, c := range cursors {
			if c.TryDelete() {
				wins++
			}
		}
		for _, c := range cursors {
			c.Close()
		}
		if wins != 1 {
			t.Fatalf("%d TryDeletes of one cell succeeded, want exactly 1", wins)
		}
	})
}

func TestCursorTraversesDeletedCell(t *testing.T) {
	// §2.2 cell persistence: a cursor visiting a deleted cell can still
	// read its contents and continue traversing.
	managers(t, func(t *testing.T, m mm.Manager[int]) {
		l := New(m)
		insertAll(t, l, 3, 2, 1)
		parked := l.NewCursor()
		parked.Next() // visiting 2
		if got := parked.Item(); got != 2 {
			t.Fatalf("parked on %d, want 2", got)
		}

		deleter := l.NewCursor()
		deleter.Next()
		if !deleter.TryDelete() { // delete 2
			t.Fatal("delete failed")
		}
		deleter.Close()

		if !parked.OnDeleted() {
			t.Fatal("parked cursor should observe its cell was deleted")
		}
		if got := parked.Item(); got != 2 {
			t.Fatalf("deleted cell's item = %d, want 2 (persistence)", got)
		}
		if !parked.Next() {
			t.Fatal("Next from a deleted cell failed")
		}
		if got := parked.Item(); got != 3 {
			t.Fatalf("after Next from deleted cell, item = %d, want 3", got)
		}
		parked.Close()
		if err := l.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestInsertAfterTargetDeletedRetries(t *testing.T) {
	// The Figure 2 scenario: insertion at a position whose cell is
	// concurrently deleted. The insertion's Compare&Swap must fail (the
	// deletion swung pre_aux.next first), and the retry must place the
	// new cell correctly — the combination the paper shows cannot be
	// allowed to interleave wrongly.
	managers(t, func(t *testing.T, m mm.Manager[int]) {
		l := New(m)
		insertAll(t, l, 3, 2) // list: [2 3]
		inserter := l.NewCursor()
		inserter.Next() // visiting 3; would insert before it
		deleter := l.NewCursor()
		deleter.Next()
		if !deleter.TryDelete() { // delete 3
			t.Fatal("delete failed")
		}
		deleter.Close()

		q, a := l.AllocInsertNodes(9)
		if inserter.TryInsert(q, a) {
			t.Fatal("insert after concurrent delete of target must fail")
		}
		inserter.Update()
		if !inserter.TryInsert(q, a) {
			t.Fatal("retry after Update failed")
		}
		l.ReleaseNodes(q, a)
		inserter.Close()
		if got := l.Items(); !equalItems(got, []int{2, 9}) {
			t.Fatalf("items = %v, want [2 9]", got)
		}
		if err := l.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAdjacentDeletes(t *testing.T) {
	// The Figure 3 scenario: deletion of two adjacent cells. Whatever the
	// order, neither deletion may be undone.
	managers(t, func(t *testing.T, m mm.Manager[int]) {
		l := New(m)
		insertAll(t, l, 4, 3, 2, 1) // [1 2 3 4]
		cB := l.NewCursor()
		cB.Next() // at 2
		cC := l.NewCursor()
		cC.Next()
		cC.Next() // at 3
		if !cB.TryDelete() {
			t.Fatal("delete of 2 failed")
		}
		if !cC.TryDelete() {
			t.Fatal("delete of 3 failed")
		}
		cB.Close()
		cC.Close()
		if got := l.Items(); !equalItems(got, []int{1, 4}) {
			t.Fatalf("items = %v, want [1 4] (no deletion undone)", got)
		}
		if err := l.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestValidAndUpdate(t *testing.T) {
	managers(t, func(t *testing.T, m mm.Manager[int]) {
		l := New(m)
		insertAll(t, l, 1)
		c := l.NewCursor()
		defer c.Close()
		if !c.Valid() {
			t.Fatal("fresh cursor must be valid")
		}
		other := l.NewCursor()
		q, a := l.AllocInsertNodes(0)
		other.TryInsert(q, a)
		l.ReleaseNodes(q, a)
		other.Close()
		if c.Valid() {
			t.Fatal("cursor must be invalid after concurrent insert at its position")
		}
		c.Update()
		if !c.Valid() {
			t.Fatal("Update must restore validity")
		}
		if got := c.Item(); got != 0 {
			t.Fatalf("after Update cursor visits %d, want 0 (Fig 12's uniqueness re-check relies on this)", got)
		}
	})
}

// TestSuccWalksLikeNext: the cursorless read step visits the positions
// a cursor's Next visits, counts two cells per step in Hops (the
// auxiliary node and the cell after it) as Next does, and under rc gives
// back every reference it hands out.
func TestSuccWalksLikeNext(t *testing.T) {
	for _, m := range []mm.Manager[int]{mm.NewGC[int](), mm.NewRC[int](), mm.NewEBR[int]()} {
		l := New(m)
		insertAll(t, l, 5, 4, 3, 2, 1)
		l.EnableStats()
		var viaNext []int
		c := l.NewCursor()
		for !c.End() {
			viaNext = append(viaNext, c.Item())
			c.Next()
		}
		c.Close()
		if got := l.Stats().Snapshot().Hops; got != 2*5 {
			t.Errorf("%T: Next from the first item to the end: Hops = %d, want 10", m, got)
		}
		l.Stats().Reset()
		var viaSucc []int
		g := l.Pin()
		p := l.First()
		l.Hold(p)
		for {
			n := l.Succ(p, l.LinksAfter(p))
			l.Unhold(p)
			if n == l.Last() {
				l.Unhold(n)
				break
			}
			viaSucc = append(viaSucc, n.Item)
			p = n
		}
		l.Unpin(g)
		if !equalItems(viaSucc, viaNext) || len(viaSucc) != 5 {
			t.Errorf("%T: Succ from First visits %v, Next visits %v", m, viaSucc, viaNext)
		}
		if got := l.Stats().Snapshot().Hops; got != 2*6 {
			t.Errorf("%T: Succ from First to Last: Hops = %d, want 12", m, got)
		}
		l.Close()
		if q, ok := m.(mm.Quiescer); ok {
			q.Quiesce()
		}
		if _, gc := m.(*mm.GC[int]); !gc && m.Stats().Live() != 0 {
			t.Errorf("%T: %d live cells after Close, want 0", m, m.Stats().Live())
		}
	}
}
