package core

import (
	"valois/internal/mm"
	"valois/internal/primitive"
)

// Cursor is a position in a list (§2.1), implemented as the three pointers
// of §3: target is the cell at the visited position (equal to the Last
// dummy when visiting the end-of-list position), pre_aux is an auxiliary
// node, and pre_cell is a regular cell used only by TryDelete. The cursor
// is valid when pre_aux.next = target; concurrent structural changes near
// the cursor invalidate it, and Update revalidates it.
//
// A cursor is owned by a single goroutine; distinct goroutines use distinct
// cursors over the same shared list. Under mm.RC the cursor holds counted
// references to the cells its three pointers visit; under mm.EBR it holds
// an epoch pin for its whole lifetime instead, which is what keeps the
// cells behind its plain-loaded pointers from being recycled. Either way,
// call Close when done with the cursor.
//
// A cursor is the process-private object of §2.2, so it normally lives in
// its operation's frame: declare a Cursor variable, open it with
// List.InitCursor or InitCursorAt, and defer Close. Nothing retains the
// pointer, so the cursor costs no heap allocation. An operation that
// visits several lists of one manager (the skip list's levels) moves its
// one cursor between them with Seat and so pins one epoch, not one per
// list.
type Cursor[T any] struct {
	list    *List[T]
	target  *mm.Node[T]
	preAux  *mm.Node[T]
	preCell *mm.Node[T]
	guard   mm.Guard // the epoch pin under mm.EBR
	pinned  bool
}

// List returns the list this cursor traverses.
func (c *Cursor[T]) List() *List[T] { return c.list }

// seat positions the cursor at the first normal cell at or after n, a
// cell of c.list the caller safely holds. It is First (Figure 6) started
// from n instead of the First dummy; every way of opening or moving a
// cursor ends here.
func (c *Cursor[T]) seat(n *mm.Node[T]) {
	l := c.list
	l.addRef(n)                     // refs: the cursor's own hold, duplicating the caller's
	aux := l.safeRead(n.NextAddr()) // Fig 6 line 2
	l.release(c.preCell)            // refs: drop whatever the cursor held before
	l.release(c.preAux)
	l.release(c.target)
	c.preCell, c.preAux, c.target = n, aux, nil // Fig 6 lines 1, 3
	c.update()                                  // Fig 6 line 4
}

// Reset moves the cursor to the first position of the list, implementing
// First (Figure 6); the root pointer never changes, so SafeRead(First) is
// a plain counted copy.
func (c *Cursor[T]) Reset() { c.seat(c.list.first) }

// Seat moves the cursor onto list l, to the first normal cell at or after
// n (a cell of l the caller safely holds, possibly deleted — see
// InitCursorAt) or to l's first position when n is nil. l must allocate
// from the same manager as the cursor's current list: the cursor's
// references and its epoch pin belong to the manager, so the pin taken
// when the cursor was opened keeps covering it, and cells read on the old
// list stay readable until Close.
//
// Seat runs the yield hook first: between the caller obtaining n and the
// cursor resuming from it, a concurrent deletion can unlink and retire n,
// and the schedule explorer must be able to put one there.
func (c *Cursor[T]) Seat(l *List[T], n *mm.Node[T]) {
	c.list = l
	if n == nil {
		n = l.first
	}
	l.maybeYield()
	c.seat(n)
}

// Close releases the cursor's references and its epoch pin. The cursor
// must not be used afterwards.
func (c *Cursor[T]) Close() {
	l := c.list
	l.release(c.preCell)
	l.release(c.preAux)
	l.release(c.target)
	c.preCell, c.preAux, c.target = nil, nil, nil
	l.unpin(c.guard, c.pinned)
	c.pinned = false
}

// End reports whether the cursor is visiting the distinguished end-of-list
// position (target = Last, §3).
func (c *Cursor[T]) End() bool { return c.target == c.list.last }

// Item returns the item of the cell the cursor is visiting. It must not be
// called at the end-of-list position. Thanks to cell persistence (§2.2)
// Item remains readable even after the cell has been deleted from the list.
func (c *Cursor[T]) Item() T { return c.target.Item }

// Target returns the cell the cursor is visiting. Exposed for structural
// tests and for building higher-level structures (e.g. the skip list's
// level descent).
func (c *Cursor[T]) Target() *mm.Node[T] { return c.target }

// PreCell returns the cursor's pre_cell pointer: the cell from which the
// cursor last advanced (or the First dummy after a Reset). After a search
// that stopped at the first item ≥ some key, PreCell is the closest
// preceding cell — which is how the skip list obtains the node to descend
// from. The returned cell is kept alive by the cursor's reference; callers
// that need it beyond the cursor's lifetime must AddRef it first.
func (c *Cursor[T]) PreCell() *mm.Node[T] { return c.preCell }

// OnDeleted reports whether the visited cell has been deleted from the
// list by some process. Traversal past a deleted cell still works: its
// next pointer is kept intact until the cell is reclaimed.
func (c *Cursor[T]) OnDeleted() bool {
	return c.target != c.list.last && c.target.Deleted()
}

// Valid reports whether the cursor is currently valid (pre_aux.next =
// target, §3). A valid cursor may be invalidated at any moment by a
// concurrent operation; the TryInsert/TryDelete Compare&Swap is the only
// authoritative validity test.
func (c *Cursor[T]) Valid() bool { return c.preAux.Next() == c.target }

// Update revalidates the cursor, implementing Update (Figure 5): it walks
// from pre_aux over any chain of auxiliary nodes, removing pairs of
// adjacent auxiliary nodes it encounters, and lands target on the next
// normal cell (or Last).
func (c *Cursor[T]) Update() { c.update() }

// update is Update, returning the number of extra auxiliary nodes it
// passed for Next's hop count.
func (c *Cursor[T]) update() (skipped int64) {
	l := c.list
	if c.preAux.Next() == c.target { // Fig 5 line 1: already valid
		return 0
	}
	p := c.preAux                 // refs: cursor's pre_aux reference transfers to p
	n := l.safeRead(p.NextAddr()) // Fig 5 line 4
	l.release(c.target)           // Fig 5 line 5
	if n != l.last && n.IsAux() { // Fig 5 line 6
		p, n, skipped = l.skipAux(c.preCell, p, n)
	}
	c.preAux = p // Fig 5 line 11
	c.target = n // Fig 5 line 12
	return skipped
}

// skipAux is Update's loop (Figure 5 lines 6-10), entered when the node
// n after the auxiliary node p, which follows the normal cell cell, is
// itself auxiliary: it walks over the chain of auxiliary nodes, removing
// the first of each adjacent pair it meets, and returns the last
// auxiliary node and the normal cell (or Last) after it, both held,
// with the number of extra auxiliary nodes passed. The caller's
// references on p and n transfer in; cell stays the caller's.
func (l *List[T]) skipAux(cell, p, n *mm.Node[T]) (*mm.Node[T], *mm.Node[T], int64) {
	var skipped int64
	for n != l.last && n.IsAux() { // Fig 5 line 6
		// Fig 5 line 7: two adjacent auxiliary nodes — try to unlink the
		// first by swinging cell's next past it. If cell has itself been
		// deleted this swing is harmless: it updates a cell that is no
		// longer reachable from the list.
		l.maybeYield()
		if !l.noAuxRemoval && cell.CASNext(p, n) {
			l.linkRef(n) // refs: new link cell→n
			l.unlink(p)  // refs: dropped link cell→p
			l.stats.addAuxRemovals(1)
		}
		l.release(p)                 // Fig 5 line 8: our traversal reference
		p = n                        // Fig 5 line 9
		n = l.safeRead(p.NextAddr()) // Fig 5 line 10
		skipped++
	}
	l.stats.addAuxSkips(skipped)
	return p, n, skipped
}

// Next advances the cursor to the next position, implementing Next
// (Figure 7). It returns false if the cursor is already at the end-of-list
// position and cannot be advanced.
func (c *Cursor[T]) Next() bool {
	l := c.list
	if c.target == l.last { // Fig 7 lines 1-2
		return false
	}
	l.addRef(c.target)   // Fig 7 line 4: SafeRead(c.target) duplicates a held reference
	l.release(c.preCell) // Fig 7 line 3
	c.preCell = c.target
	next := l.safeRead(c.target.NextAddr()) // Fig 7 line 6
	l.release(c.preAux)                     // Fig 7 line 5
	c.preAux = next
	l.stats.addHops(2 + c.update()) // Fig 7 line 7
	return true
}

// Links are the two nodes after a cell that a read step follows: the
// auxiliary node after it and the node after that. LinksAfter loads
// them; Succ finishes the step from them.
type Links[T any] struct {
	aux, next *mm.Node[T]
}

// LinksAfter starts the cursorless read step from the cell p (Figure 7
// line 6, Figure 5 line 4): a normal cell or First of this list that
// the caller safely holds — under mm.EBR, inside a Pin — and that may
// have been deleted, since its next pointer is preserved (§2.2). The
// links are traversal references that the Succ given them consumes.
//
// The step is split at its first cache miss so that a reader advancing
// many positions in turns — the skip list's batched lookups — can load
// every position's links a round before it finishes any step, and the
// misses of independent positions overlap.
func (l *List[T]) LinksAfter(p *mm.Node[T]) Links[T] {
	a := l.safeRead(p.NextAddr())
	return Links[T]{aux: a, next: l.safeRead(a.NextAddr())}
}

// Succ finishes the cursorless read step from p, whose links ln were
// loaded by LinksAfter(p): it is Next (Figure 7) and the Update it ends
// with (Figure 5) without a cursor, and returns the normal cell after p,
// or Last, as a traversal reference the caller gives up with Unhold.
// Like Update, it unlinks the first of any two adjacent auxiliary nodes
// it passes, running the yield hook before each such Compare&Swap.
func (l *List[T]) Succ(p *mm.Node[T], ln Links[T]) *mm.Node[T] {
	a, n := ln.aux, ln.next
	var skipped int64
	if n != l.last && n.IsAux() {
		a, n, skipped = l.skipAux(p, a, n)
	}
	l.release(a)
	l.stats.addHops(2 + skipped)
	return n
}

// TryInsert attempts to insert the normal cell q, followed by the
// auxiliary node a, at the position visited by the cursor (Figure 9;
// see Figure 8 for the resulting shape: pre_aux → q → a → target).
// It returns false, without inserting, if the cursor has become invalid;
// the caller should Update the cursor, re-establish its position, and
// retry with the same two cells.
//
// q must be a KindCell with its Item set; a must be a KindAux. Both remain
// owned by the caller until an attempt succeeds: on success the caller's
// allocation references still stand and should be dropped with
// ReleaseNodes (or kept, if the caller wants to pin the cells).
func (c *Cursor[T]) TryInsert(q, a *mm.Node[T]) bool {
	l := c.list
	if q.Next() != a { // Fig 9 line 1 (idempotent across retries)
		q.StoreNext(a)
		l.linkRef(a) // refs: link q→a
	}
	if old := a.Next(); old != c.target { // Fig 9 line 2 (retarget on retry)
		l.linkRef(c.target) // refs: link a→target
		a.StoreNext(c.target)
		l.unlink(old) // refs: dropped link a→old target (no-op first time)
	}
	l.maybeYield()
	if c.preAux.CASNext(c.target, q) { // Fig 9 line 3
		l.linkRef(q)       // refs: new link pre_aux→q
		l.unlink(c.target) // refs: dropped link pre_aux→target
		return true
	}
	return false
}

// TryDelete attempts to delete the cell visited by the cursor
// (Figure 10). It returns false if the cursor has become invalid (or is at
// the end-of-list position); the caller should Update and retry.
//
// On success the cell is unlinked and its back_link is set to pre_cell;
// the bulk of the work is then removing the "extra" auxiliary node the
// deletion leaves behind, chasing back_links to a cell still in the list
// (lines 7–11), collapsing any chain of auxiliary nodes (lines 12–16), and
// swinging that cell's next past the chain (lines 17–21).
func (c *Cursor[T]) TryDelete() bool {
	l := c.list
	d := c.target // Fig 10 line 1 (borrow the cursor's reference)
	if d == l.last {
		return false
	}
	// Fig 10 line 2. The paper reads d.next plainly; we use SafeRead so
	// that the reference accounting below is uniform. Note the read may be
	// stale by the time of the Compare&Swap (d.next moves when an Update
	// collapses auxiliary nodes after d); installing the older auxiliary
	// node is benign because bypassed auxiliary nodes keep pointing into
	// the list, and the chain collapse below removes the slack.
	n := l.safeRead(d.NextAddr())
	l.maybeYield()
	if !c.preAux.CASNext(d, n) { // Fig 10 line 3
		l.release(n)
		return false // Fig 10 lines 4-5
	}
	l.linkRef(n) // refs: new link pre_aux→n
	l.unlink(d)  // refs: dropped link pre_aux→d

	l.linkRef(c.preCell)
	d.StoreBackLink(c.preCell) // Fig 10 line 6 (the stored pointer is counted)

	// Fig 10 lines 7-11: walk back_links to a cell still in the list.
	p := c.preCell
	l.addRef(p) // refs: private copy; the cursor keeps its own pre_cell reference
	for {
		q := l.safeRead(p.BackLinkAddr()) // Fig 10 line 9
		if q == nil {                     // Fig 10 line 8
			break
		}
		l.release(p) // Fig 10 line 10
		p = q        // Fig 10 line 11
		l.stats.addBacklinkSteps(1)
	}

	s := l.safeRead(p.NextAddr()) // Fig 10 line 12

	// Fig 10 lines 13-16: advance n to the last auxiliary node of the
	// chain (stop when the node after n is a normal cell). The node after
	// n is inspected only through a counted reference: under mm.RC an
	// uncounted one may be recycled, and its kind rewritten, mid-read.
	for {
		q := l.safeRead(n.NextAddr()) // Fig 10 lines 13-14
		if q == nil || q.IsNormal() {
			l.release(q)
			break
		}
		l.release(n) // Fig 10 line 15
		n = q        // Fig 10 line 16
		l.stats.addChainSteps(1)
	}

	// Fig 10 lines 17-21: swing p.next past the auxiliary chain. Stop on
	// success, or when p has itself been deleted (its deleter's back_link
	// walk takes over), or when the chain has been extended by another
	// deletion (that deleter's collapse takes over).
	backoff := primitive.Backoff{Disabled: l.noBackoff}
	for {
		l.maybeYield()
		if p.CASNext(s, n) { // Fig 10 line 17
			l.linkRef(n) // refs: new link p→n
			l.unlink(s)  // refs: dropped link p→s
			break
		}
		if p.BackLink() != nil {
			break
		}
		after := l.safeRead(n.NextAddr())
		extended := after != nil && after.IsAux()
		l.release(after)
		if extended {
			break
		}
		backoff.Wait()               // §2.1: contended swing; back off before re-reading
		l.release(s)                 // Fig 10 line 19
		s = l.safeRead(p.NextAddr()) // Fig 10 line 20
		l.stats.addDeleteCASRetries(1)
	}
	l.release(p) // Fig 10 line 22
	l.release(s) // Fig 10 line 23
	l.release(n) // Fig 10 line 24
	return true  // Fig 10 line 25
}

// AllocInsertNodes allocates the cell-and-auxiliary-node pair TryInsert
// needs, with the cell's item set. It returns nil, nil when the manager's
// capacity is exhausted.
func (l *List[T]) AllocInsertNodes(item T) (q, a *mm.Node[T]) {
	q = l.manager.Alloc()
	if q == nil {
		return nil, nil
	}
	a = l.manager.Alloc()
	if a == nil {
		l.manager.Release(q)
		return nil, nil
	}
	q.SetKind(mm.KindCell)
	q.Item = item
	a.SetKind(mm.KindAux)
	return q, a
}

// ReleaseNodes drops the caller's allocation references on nodes obtained
// from AllocInsertNodes, after a successful insertion (the list's links now
// keep them alive) or when abandoning an insertion.
func (l *List[T]) ReleaseNodes(nodes ...*mm.Node[T]) {
	for _, n := range nodes {
		l.manager.Release(n)
	}
}
