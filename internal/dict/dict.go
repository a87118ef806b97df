// Package dict implements the paper's dictionary abstract data type (§4):
// "a collection of items which are distinguished by distinct keys", with
// the operations Find, Insert, and Delete. Two of the paper's four
// non-blocking structures live here — the sorted linked list (§4.1,
// Figures 11–13) and the hash table of sorted lists (§4.1); the skip list
// and the binary search tree have their own packages (internal/skiplist,
// internal/bst) but satisfy the same Dictionary interface.
package dict

import (
	"cmp"
	"sync/atomic"

	"valois/internal/primitive"
)

// Dictionary is the §4 concurrent dictionary: a set of key/value items
// with distinct keys. Implementations in this module are non-blocking and
// linearizable; all methods are safe for concurrent use.
type Dictionary[K cmp.Ordered, V any] interface {
	// Find reports the value stored under key, if any.
	Find(key K) (V, bool)
	// Insert adds the item if no item with the same key is present,
	// reporting whether it inserted. Insert does not replace values:
	// inserting an existing key returns false, per Figure 12.
	Insert(key K, value V) bool
	// Upsert binds key to value whether or not the key is present: it
	// replaces the value of a bound key in place, and otherwise inserts
	// the item as Insert does.
	Upsert(key K, value V)
	// Delete removes the item with the given key, reporting whether an
	// item was removed (Figure 13).
	Delete(key K) bool
}

// Entry is a key/value item as a caller sees it: the paper's "key field
// which contains the unique key for the item stored in the cell" (§4.1)
// plus the associated value. Cells do not store Entries: they keep the
// value in a Box.
type Entry[K cmp.Ordered, V any] struct {
	Key   K
	Value V
}

// Box is the value slot of a dictionary cell: an atomic pointer to an
// immutable copy of the value, or nil — the tombstone — once the item has
// been deleted. The cell's key and position never change after the cell
// is published, so every change to a binding is one Compare&Swap on its
// box, and each backend names its linearization points there:
//
//   - Upsert of a bound key linearizes at Replace, which swaps the box
//     while it is live; overwriting a value is no structural change.
//   - Delete linearizes at Tombstone. Only then does it unlink the cell
//     with the structure's own deletion (Figure 13, the skip list's
//     top-down removal, the tree's claim), which any Insert or Upsert
//     meeting the tombstoned cell helps to finish.
//   - A tombstoned cell reads as absent everywhere, so at most one live
//     cell per key is ever linked: an insertion runs only once the
//     previous cell for its key has been unlinked.
//
// A tombstone is final, which is what keeps an overwrite from resurrecting
// a deleted item. Boxes are ordinary heap objects, so a Compare&Swap on a
// box cannot suffer the ABA problem even where cells are recycled (§5.1).
type Box[V any] struct {
	p atomic.Pointer[V]
}

// Set fills the box of a cell that is not yet published.
func (b *Box[V]) Set(v V) { b.p.Store(&v) }

// Load returns the bound value, or false once the box is tombstoned.
func (b *Box[V]) Load() (V, bool) {
	if p := b.p.Load(); p != nil {
		return *p, true
	}
	var zero V
	return zero, false
}

// Live reports whether the box is not tombstoned.
func (b *Box[V]) Live() bool { return b.p.Load() != nil }

// Replace swaps the value of a live box, reporting false — without
// writing — once the box is tombstoned. Its successful Compare&Swap is
// the linearization point of an Upsert of a bound key; a failed one means
// another Replace or a Tombstone got in first, so Replace retries only
// while other operations complete.
func (b *Box[V]) Replace(v V) bool {
	nv := &v
	var backoff primitive.Backoff
	for {
		old := b.p.Load()
		if old == nil {
			return false
		}
		if b.p.CompareAndSwap(old, nv) {
			return true
		}
		backoff.Wait() // §2.1: a hot key's writers back off
	}
}

// Tombstone deletes the binding, returning the value it held; false means
// the box was already tombstoned. Its successful Compare&Swap is the
// linearization point of Delete.
func (b *Box[V]) Tombstone() (V, bool) {
	var backoff primitive.Backoff
	for {
		old := b.p.Load()
		if old == nil {
			var zero V
			return zero, false
		}
		if b.p.CompareAndSwap(old, nil) {
			return *old, true
		}
		backoff.Wait()
	}
}
