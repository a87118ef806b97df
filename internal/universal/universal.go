// Package universal implements the baseline the paper argues against
// (§1, §2): a Herlihy-style universal construction [13] that makes any
// sequential object lock-free by copying. Each operation reads the
// current object state through an atomic root pointer, copies the whole
// state, applies the operation to the copy, and Compare&Swaps the root
// from the old state to the new one, retrying from scratch on failure.
//
// The construction is correct and non-blocking, but it exhibits exactly
// the inefficiencies the paper lists — "wasted parallelism, excessive
// copying, and generally high overhead" — because every update copies the
// entire dictionary and contending operations discard whole copies.
// Experiment E7 measures the gap against the direct implementation of §3.
package universal

import (
	"cmp"
	"sort"
	"sync/atomic"

	"valois/internal/dict"
	"valois/internal/primitive"
)

// state is the immutable object state: a sorted slice of entries. It is
// never modified after publication; operations copy it.
type state[K cmp.Ordered, V any] struct {
	entries []dict.Entry[K, V]
}

// Dict is a dictionary implemented with the universal construction.
type Dict[K cmp.Ordered, V any] struct {
	root   atomic.Pointer[state[K, V]]
	copies atomic.Int64 // entries copied, for the E7 overhead report
}

var _ dict.Dictionary[int, int] = (*Dict[int, int])(nil)

// New returns an empty universal-construction dictionary.
func New[K cmp.Ordered, V any]() *Dict[K, V] {
	d := &Dict[K, V]{}
	d.root.Store(&state[K, V]{})
	return d
}

// find locates key in s, returning its index and whether it is present.
func find[K cmp.Ordered, V any](s *state[K, V], key K) (int, bool) {
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].Key >= key })
	return i, i < len(s.entries) && s.entries[i].Key == key
}

// Find reports the value stored under key. Reads need no copy: they read
// the current immutable state.
func (d *Dict[K, V]) Find(key K) (V, bool) {
	s := d.root.Load()
	if i, ok := find(s, key); ok {
		return s.entries[i].Value, true
	}
	var zero V
	return zero, false
}

// Insert adds the item if the key is not present, copying the entire
// state and swinging the root.
func (d *Dict[K, V]) Insert(key K, value V) bool { return d.put(key, value, false) }

// Upsert binds key to value, copying the entire state and swinging the
// root.
func (d *Dict[K, V]) Upsert(key K, value V) { d.put(key, value, true) }

// put writes the binding into a copy of the state — in place of the
// key's entry when present and replace is set — and reports whether it
// did.
func (d *Dict[K, V]) put(key K, value V, replace bool) bool {
	var backoff primitive.Backoff
	for {
		s := d.root.Load()
		i, ok := find(s, key)
		if ok && !replace {
			return false
		}
		var next *state[K, V]
		if ok {
			next = &state[K, V]{entries: append([]dict.Entry[K, V](nil), s.entries...)}
		} else {
			next = &state[K, V]{entries: make([]dict.Entry[K, V], len(s.entries)+1)}
			copy(next.entries, s.entries[:i])
			copy(next.entries[i+1:], s.entries[i:])
		}
		next.entries[i] = dict.Entry[K, V]{Key: key, Value: value}
		d.copies.Add(int64(len(s.entries)))
		if d.root.CompareAndSwap(s, next) {
			return true
		}
		backoff.Wait() // §2.1: back off instead of re-colliding immediately
	}
}

// Delete removes the item with the given key, copying the entire state
// and swinging the root.
func (d *Dict[K, V]) Delete(key K) bool {
	var backoff primitive.Backoff
	for {
		s := d.root.Load()
		i, ok := find(s, key)
		if !ok {
			return false
		}
		next := &state[K, V]{entries: make([]dict.Entry[K, V], len(s.entries)-1)}
		copy(next.entries, s.entries[:i])
		copy(next.entries[i:], s.entries[i+1:])
		d.copies.Add(int64(len(s.entries)))
		if d.root.CompareAndSwap(s, next) {
			return true
		}
		backoff.Wait() // §2.1: back off instead of re-colliding immediately
	}
}

// Len reports the number of items.
func (d *Dict[K, V]) Len() int { return len(d.root.Load().entries) }

// EntriesCopied reports the total number of entries copied by updates —
// the "excessive copying" overhead of the construction.
func (d *Dict[K, V]) EntriesCopied() int64 { return d.copies.Load() }
