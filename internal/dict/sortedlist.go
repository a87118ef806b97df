package dict

import (
	"cmp"

	"valois/internal/core"
	"valois/internal/mm"
	"valois/internal/primitive"
)

// entry is what a dictionary cell stores: the key, immutable once the
// cell is published, and the Box holding the bound value. It is never
// copied out of a published cell — the box is written concurrently — so
// readers go through Cursor.Target().
type entry[K cmp.Ordered, V any] struct {
	Key K
	val Box[V]
}

// SortedList is the paper's first dictionary structure (§4.1): the items
// are kept in a single lock-free list sorted by key, which makes key
// uniqueness enforceable with FindFrom (Figure 11) and positions the
// cursor for insertion in one pass.
type SortedList[K cmp.Ordered, V any] struct {
	list      *core.List[entry[K, V]]
	noBackoff bool
}

var _ Dictionary[int, int] = (*SortedList[int, int])(nil)

// NewSortedList returns an empty sorted-list dictionary whose cells come
// from a fresh manager of the given mode. RC options (free-list striping,
// cell padding, backoff — see mm.NewRC) configure the free list under
// mm.ModeRC and mm.ModeEBR and are ignored under mm.ModeGC.
func NewSortedList[K cmp.Ordered, V any](mode mm.Mode, opts ...mm.RCOption) *SortedList[K, V] {
	return &SortedList[K, V]{list: core.New(mm.NewManager[entry[K, V]](mode, opts...))}
}

// List exposes the underlying lock-free list for structural checks and
// work-counter access in tests and benchmarks.
func (s *SortedList[K, V]) List() *core.List[entry[K, V]] { return s.list }

// EnableStats turns on the extra-work counters of §4.1's analysis.
func (s *SortedList[K, V]) EnableStats() *core.Counters { return s.list.EnableStats() }

// MemStats returns the allocation counters of the list's §5 memory
// manager (always-zero Reclaims under mm.ModeGC).
func (s *SortedList[K, V]) MemStats() mm.Stats { return s.list.Manager().Stats() }

// EnableTorture forwards to core.List.EnableTorture; see there.
func (s *SortedList[K, V]) EnableTorture(period uint32) { s.list.EnableTorture(period) }

// DisableBackoff turns off the exponential backoff in the Insert/Delete
// retry loops (§2.1 recommends backoff for "starvation at high levels of
// contention"), and in the list-level TryDelete collapse loop. For the A1
// ablation experiment and the faithful configuration; must be called
// before the structure is shared.
func (s *SortedList[K, V]) DisableBackoff() {
	s.noBackoff = true
	s.list.DisableBackoff()
}

// findFrom implements FindFrom (Figure 11): search onward from the
// cursor's position for the key, leaving the cursor either on the matching
// cell (returning true) or on the first cell with a larger key / the
// end-of-list position (returning false) — which is exactly the insertion
// point for the key. The matching cell may be tombstoned; callers decide.
func findFrom[K cmp.Ordered, V any](k K, c *core.Cursor[entry[K, V]]) bool {
	for !c.End() { // Fig 11 line 1
		key := c.Target().Item.Key
		switch {
		case key == k: // Fig 11 lines 2-3
			return true
		case key > k: // Fig 11 lines 4-5
			return false
		default: // Fig 11 line 7
			c.Next()
		}
	}
	return false // Fig 11 line 8
}

// Find reports the value stored under key. A hit linearizes at the box
// load: a live box means the cell is still linked, because a cell is only
// unlinked after its tombstone. Cell persistence (§2.2) keeps the load
// safe even if the cell is deleted concurrently.
func (s *SortedList[K, V]) Find(key K) (V, bool) {
	var c core.Cursor[entry[K, V]]
	s.list.InitCursor(&c)
	defer c.Close()
	if !findFrom(key, &c) {
		var zero V
		return zero, false
	}
	s.list.Yield()
	return c.Target().Item.val.Load()
}

// Insert implements Insert (Figure 12). It returns false if an item with
// the key is already present.
func (s *SortedList[K, V]) Insert(key K, value V) bool { return s.put(key, value, false) }

// Upsert binds key to value: one Compare&Swap on the box of the key's
// live cell, or Figure 12's insertion when there is none.
func (s *SortedList[K, V]) Upsert(key K, value V) { s.put(key, value, true) }

// put is Figure 12 with the present-key case decided by replace: Insert
// refuses a live cell, Upsert replaces its value. A tombstoned cell is an
// absent key whose Delete has not finished unlinking it; put helps unlink
// it and searches again, so a new cell never joins the list beside the
// old one. The cells are allocated only once the key is known absent
// (Fig 12 lines 2-4 moved into the loop), so an overwrite allocates
// nothing but its box. put reports false only when Insert refuses, or
// when a capacity-bounded manager has no cell.
func (s *SortedList[K, V]) put(key K, value V, replace bool) bool {
	var c core.Cursor[entry[K, V]]
	s.list.InitCursor(&c) // Fig 12 line 1
	defer c.Close()
	var q, a *mm.Node[entry[K, V]]
	backoff := primitive.Backoff{Disabled: s.noBackoff}
	for {
		if findFrom(key, &c) { // Fig 12 lines 5-7: key's cell found
			s.list.Yield()
			box := &c.Target().Item.val
			if replace && box.Replace(value) || !replace && box.Live() {
				s.list.ReleaseNodes(q, a)
				return replace
			}
			c.TryDelete() // tombstoned: help its Delete unlink it
		} else {
			if q == nil {
				if q, a = s.list.AllocInsertNodes(entry[K, V]{Key: key}); q == nil {
					return false // capacity exhausted (only with a bounded RC manager)
				}
				q.Item.val.Set(value)
			}
			if c.TryInsert(q, a) { // Fig 12 lines 8-10
				s.list.ReleaseNodes(q, a)
				return true
			}
			s.list.Stats().AddInsertRetries(1)
			backoff.Wait() // §2.1: exponential backoff under contention
		}
		c.Update() // Fig 12 line 11; the loop re-runs FindFrom, which both
		// re-checks uniqueness and re-establishes the insertion point
	}
}

// Delete implements Delete (Figure 13) behind a tombstone: it linearizes
// at the Compare&Swap that tombstones the key's live cell, then unlinks
// the cell. It returns false if no live item with the key is present.
func (s *SortedList[K, V]) Delete(key K) bool {
	var c core.Cursor[entry[K, V]]
	s.list.InitCursor(&c) // Fig 13 line 1
	defer c.Close()
	if !findFrom(key, &c) { // Fig 13 lines 2-4
		return false
	}
	s.list.Yield()
	if _, ok := c.Target().Item.val.Tombstone(); !ok {
		return false
	}
	d := c.Target()
	s.list.Hold(d) // refs: d is compared by identity after the cursor leaves it
	defer s.list.Unhold(d)
	backoff := primitive.Backoff{Disabled: s.noBackoff}
	for !c.TryDelete() { // Fig 13 lines 5-7
		s.list.Stats().AddDeleteRetries(1)
		backoff.Wait()
		c.Update() // Fig 13 line 8
		if !findFrom(key, &c) || c.Target() != d {
			break // a helper unlinked the cell
		}
	}
	return true
}

// Len reports the number of items, by traversal; under concurrent updates
// it is only a snapshot.
func (s *SortedList[K, V]) Len() int {
	n := 0
	s.Range(func(K, V) bool { n++; return true })
	return n
}

// Range calls f for each item in strictly ascending key order until f
// returns false. Items inserted or deleted concurrently may or may not be
// observed; items present for the whole traversal are observed.
func (s *SortedList[K, V]) Range(f func(key K, value V) bool) {
	var c core.Cursor[entry[K, V]]
	s.list.InitCursor(&c)
	defer c.Close()
	scan(&c, nil, f)
}

// RangeFrom is Range starting at the first key ≥ start: one FindFrom
// positions the cursor (Figure 11 leaves it exactly there on a miss) and
// iteration proceeds as in Range.
func (s *SortedList[K, V]) RangeFrom(start K, f func(key K, value V) bool) {
	var c core.Cursor[entry[K, V]]
	s.list.InitCursor(&c)
	defer c.Close()
	findFrom(start, &c)
	scan(&c, &start, f)
}

// scan reports the live items from the cursor onward, skipping keys below
// *start (if start is non-nil) and tombstoned cells.
//
// The underlying cursor sweep can rejoin the list at an earlier position
// after traversing cells deleted concurrently (see the internal/core
// package comment), so scan skips any item whose key is not greater than
// the last one reported, guaranteeing monotone output.
func scan[K cmp.Ordered, V any](c *core.Cursor[entry[K, V]], start *K, f func(key K, value V) bool) {
	first := true
	var last K
	for !c.End() {
		e := &c.Target().Item
		if (start == nil || e.Key >= *start) && (first || e.Key > last) {
			if v, ok := e.val.Load(); ok {
				if !f(e.Key, v) {
					return
				}
				first = false
				last = e.Key
			}
		}
		if !c.Next() {
			return
		}
	}
}

// Close releases the structure's cells. Under an RC manager it must only
// be called once no operations are in flight.
func (s *SortedList[K, V]) Close() { s.list.Close() }
