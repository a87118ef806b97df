// Package core implements the paper's primary contribution (§3): a
// non-blocking singly-linked list manipulated with single-word
// Compare&Swap, supporting concurrent traversal, insertion and deletion at
// arbitrary positions through cursors.
//
// The data structure follows Figure 4: normal cells carrying items are
// separated by auxiliary nodes (cells with only a next field), and the list
// is delimited by two dummy cells, First and Last. Every normal cell has an
// auxiliary node as predecessor and successor; chains of adjacent auxiliary
// nodes may appear transiently while deletions are in progress and are
// collapsed by Update and TryDelete (§3's final argument shows they vanish
// once all deletions complete — TestAuxChainsCollapse reproduces it).
//
// Besides the cursor, the list offers a cursorless read step: Next and
// Update (Figures 5 and 7) taken from a cell the caller holds, for
// readers that keep only the cell they stopped behind — the skip list's
// batched lookups, which hold many such positions at once and advance
// them in turns. The step is split at its first cache miss: LinksAfter
// loads the links after the cell, Succ follows them to the next normal
// cell, keeping Update's removal of adjacent auxiliary nodes and its
// yield hook. Pin/Unpin give it the epoch a cursor would hold.
//
// All memory is obtained from an mm.Manager, so the same algorithm text
// runs both under the paper's reference-count scheme (mm.RC) and under the
// Go garbage collector (mm.GC). Reference-count bookkeeping beyond the
// paper's pseudocode is marked with "refs:" comments; under mm.GC those
// calls are no-ops.
//
// # Traversal past deleted cells rejoins at an unspecified position
//
// Cell persistence (§2.2) lets a cursor parked on a deleted cell keep
// traversing through the cell's preserved next pointer. A consequence of
// the paper's cleanup strategy worth knowing: auxiliary nodes are
// position-agnostic connective tissue, and TryDelete's chain collapse
// (Figure 10 line 17) reuses the auxiliary node at the end of a chain in
// place. If every cell in a region is deleted, an auxiliary node that once
// sat late in the list can end up as, say, the head auxiliary. A cursor
// whose frozen path runs through such a node therefore rejoins the live
// list at an arbitrary — possibly earlier — position and may revisit items
// it has already seen. Keyed searches (Figure 11) are unaffected: they
// simply re-walk forward and land at the correct place, and the
// TryInsert/TryDelete Compare&Swap guards keep every update linearizable.
// But a raw cursor sweep over a list under concurrent churn is NOT
// guaranteed to visit keys monotonically; ordered iteration at the
// dictionary layer filters for monotonicity (see dict.SortedList.Range).
package core

import (
	"runtime"
	"sync/atomic"

	"valois/internal/mm"
)

// List is a shared singly-linked list (Figure 4). The zero value is not
// usable; construct with New.
type List[T any] struct {
	manager mm.Manager[T]
	gc      bool        // manager is mm.GC: all reference bookkeeping is a no-op
	ebr     bool        // manager pins epochs: traversal references are no-ops, links stay counted
	pinner  mm.Pinner   // non-nil exactly when ebr is true
	first   *mm.Node[T] // dummy First cell; root pointer, never changes
	last    *mm.Node[T] // dummy Last cell; root pointer, never changes
	stats   *Counters   // nil unless EnableStats was called

	yield        func() // see SetYieldHook / EnableTorture
	noAuxRemoval bool   // see DisableAuxRemoval
	noBackoff    bool   // see DisableBackoff
}

// The traversal loop runs a handful of nanoseconds per hop, so the no-op
// memory-management calls of the GC manager are not left to dynamic
// dispatch: the list detects mm.GC at construction and branches around
// them. Under mm.RC the interface calls proceed as written.
//
// The paper's reference operations split into two families, and the
// wrappers below encode the split so the algorithm text stays identical
// across all three managers:
//
//   - traversal references (safeRead, release, addRef): the SafeReads a
//     cursor performs per hop and the releases/duplications of its own
//     position pointers. Counted under RC (Figures 15/16); no-ops under
//     GC; under EBR they are replaced wholesale by the cursor's epoch pin
//     — safeRead is a plain load and release/addRef do nothing.
//   - link references (linkRef, unlink): a pointer stored into a cell
//     field acquires a reference and a pointer overwritten drops one
//     (the Michael & Scott bookkeeping). Counted under both RC and EBR —
//     under EBR the drop of a cell's last link is what retires it — and
//     no-ops under GC.

func (l *List[T]) safeRead(p *atomic.Pointer[mm.Node[T]]) *mm.Node[T] {
	if l.gc || l.ebr {
		return p.Load()
	}
	return l.manager.SafeRead(p)
}

func (l *List[T]) release(n *mm.Node[T]) {
	if !l.gc && !l.ebr {
		l.manager.Release(n)
	}
}

func (l *List[T]) addRef(n *mm.Node[T]) {
	if !l.gc && !l.ebr {
		l.manager.AddRef(n)
	}
}

// linkRef accounts for a new pointer to n stored in a cell field.
func (l *List[T]) linkRef(n *mm.Node[T]) {
	if !l.gc {
		l.manager.AddRef(n)
	}
}

// unlink accounts for a stored pointer to n being overwritten; under EBR
// dropping the last link is the retire point of an unreachable cell.
func (l *List[T]) unlink(n *mm.Node[T]) {
	if !l.gc {
		l.manager.Release(n)
	}
}

// pin enters an epoch-protected region under the EBR manager and is a
// no-op guard otherwise; every cursor holds one for its lifetime.
func (l *List[T]) pin() (mm.Guard, bool) {
	if l.pinner == nil {
		return mm.Guard{}, false
	}
	return l.pinner.Pin(), true
}

func (l *List[T]) unpin(g mm.Guard, pinned bool) {
	if pinned {
		l.pinner.Unpin(g)
	}
}

// Pin enters the epoch a cursorless read (Succ) needs under mm.EBR — the
// pin a cursor takes when it is opened — and returns the guard to hand
// to Unpin. One pin covers every list of the manager. Under the other
// managers the guard is empty and both calls do nothing.
func (l *List[T]) Pin() mm.Guard {
	g, _ := l.pin()
	return g
}

// Unpin leaves the epoch entered by Pin.
func (l *List[T]) Unpin(g mm.Guard) { l.unpin(g, l.pinner != nil) }

// New builds an empty list: the two dummy cells separated by a single
// auxiliary node (Figure 4). The manager supplies and reclaims all cells.
func New[T any](manager mm.Manager[T]) *List[T] {
	first := manager.Alloc()
	aux := manager.Alloc()
	last := manager.Alloc()
	first.SetKind(mm.KindFirst)
	aux.SetKind(mm.KindAux)
	last.SetKind(mm.KindLast)

	aux.StoreNext(last)
	manager.AddRef(last) // refs: link aux→last
	first.StoreNext(aux)
	manager.AddRef(aux)  // refs: link first→aux
	manager.Release(aux) // refs: drop the allocation reference; the list link remains

	// The allocation references of first and last are retained as the
	// list's root references and dropped by Close.
	_, isGC := manager.(*mm.GC[T])
	pinner, isEBR := manager.(mm.Pinner)
	return &List[T]{manager: manager, gc: isGC, ebr: isEBR, pinner: pinner, first: first, last: last}
}

// Manager returns the memory manager the list allocates from.
func (l *List[T]) Manager() mm.Manager[T] { return l.manager }

// EnableStats attaches work counters to the list (experiments E3–E6). It
// must be called before the list is shared between goroutines.
func (l *List[T]) EnableStats() *Counters {
	if l.stats == nil {
		l.stats = &Counters{}
	}
	return l.stats
}

// Stats returns the list's counters, or nil if EnableStats was not called.
func (l *List[T]) Stats() *Counters { return l.stats }

// SetYieldHook installs a function invoked at every structural
// Compare&Swap site (the read-position-then-swing windows of Figures 5,
// 9, and 10). The deterministic schedule explorer (internal/sched) uses
// it to take control of interleaving; EnableTorture uses it to randomize
// interleaving. Must be called before the list is shared; nil (the
// default) disables it.
func (l *List[T]) SetYieldHook(f func()) {
	l.yield = f
}

// EnableTorture makes every period-th structural Compare&Swap yield the
// processor first. On a single-CPU host, operations otherwise run
// quasi-serially and the contention the amortized analysis of §4.1 talks
// about almost never materializes; the yield opens the
// read-position-then-Compare&Swap window so concurrent operations actually
// interleave. For tests and the work-measurement experiments (E3, E4)
// only; it must be called before the list is shared, and a period of zero
// (the default) disables it.
func (l *List[T]) EnableTorture(period uint32) {
	if period == 0 {
		l.yield = nil
		return
	}
	var ctr atomic.Uint32
	l.yield = func() {
		if ctr.Add(1)%period == 0 {
			runtime.Gosched()
		}
	}
}

// DisableAuxRemoval turns off Update's removal of adjacent auxiliary
// pairs (Figure 5 line 7), leaving chain cleanup entirely to TryDelete's
// collapse (Figure 10 lines 17–21). Exists for the A2 ablation
// experiment, which quantifies how much that design choice contributes;
// must be called before the list is shared.
func (l *List[T]) DisableAuxRemoval() { l.noAuxRemoval = true }

// DisableBackoff turns off the exponential backoff in TryDelete's
// chain-collapse Compare&Swap retry loop (Figure 10 lines 17–21), leaving
// the paper's bare loop. For the A1 ablation experiment and the dict
// stats tests; must be called before the list is shared.
func (l *List[T]) DisableBackoff() { l.noBackoff = true }

// maybeYield runs the yield hook; called before structural CASes.
func (l *List[T]) maybeYield() {
	if l.yield != nil {
		l.yield()
	}
}

// Yield runs the yield hook. Structures built on the list call it before
// linearizing steps they take outside it — the dictionaries' value box
// loads and Compare&Swaps (dict.Box) — so the schedule explorer
// interleaves there too.
func (l *List[T]) Yield() { l.maybeYield() }

// First returns the dummy head cell. Exposed for tests and structural
// checks; applications use cursors.
func (l *List[T]) First() *mm.Node[T] { return l.first }

// Last returns the dummy tail cell.
func (l *List[T]) Last() *mm.Node[T] { return l.last }

// InitCursor opens a cursor in caller-provided storage, visiting the first
// item of the list (or the end-of-list position if the list is empty), per
// §2.1: "When a new cursor is created, it is visiting the first item in
// the list." Whatever c held before is overwritten, not released.
func (l *List[T]) InitCursor(c *Cursor[T]) { l.InitCursorAt(c, l.first) }

// InitCursorAt opens a cursor in caller-provided storage, positioned at
// the first normal cell at or after the given cell, which must belong to
// this list and be safely held by the caller (a counted reference under
// mm.RC, an enclosing epoch pin under mm.EBR). The cell may have been
// deleted: its next pointer is preserved (§2.2), so the cursor lands on
// the closest live position after it.
func (l *List[T]) InitCursorAt(c *Cursor[T], n *mm.Node[T]) {
	*c = Cursor[T]{list: l}
	c.guard, c.pinned = l.pin() // EBR: before any plain load of shared links
	c.seat(n)
}

// NewCursor is InitCursor into a fresh heap cursor, for callers that keep
// the cursor beyond one frame.
func (l *List[T]) NewCursor() *Cursor[T] {
	c := new(Cursor[T])
	l.InitCursor(c)
	return c
}

// Hold and Unhold are the traversal-reference family (see safeRead above)
// for a caller that keeps a cell it reached through a cursor after the
// cursor has moved on — the skip list's per-level predecessors. Counted
// under mm.RC; no-ops under mm.GC and under mm.EBR, where the cell stays
// readable until the pin of the cursor that reached it is dropped.
func (l *List[T]) Hold(n *mm.Node[T]) { l.addRef(n) }

// Unhold gives up a reference taken with Hold.
func (l *List[T]) Unhold(n *mm.Node[T]) { l.release(n) }

// Close releases the list's root references. Under mm.RC this reclaims
// every cell still in the list (the release of First cascades down the
// chain of counted links); it must only be called once all cursors have
// been closed and no operations are in flight.
func (l *List[T]) Close() {
	l.manager.Release(l.first)
	l.manager.Release(l.last)
	l.first = nil
	l.last = nil
}

// Len counts the items currently in the list by traversing it with a
// cursor. It is linear and, under concurrent updates, only a snapshot.
func (l *List[T]) Len() int {
	var c Cursor[T]
	l.InitCursor(&c)
	defer c.Close()
	n := 0
	for !c.End() {
		n++
		if !c.Next() {
			break
		}
	}
	return n
}
