package valois

import (
	"cmp"

	"valois/internal/bst"
	"valois/internal/dict"
	"valois/internal/skiplist"
)

// Dictionary is the paper's §4 concurrent dictionary abstract data type: a
// set of items with distinct keys. All implementations returned by this
// package are non-blocking and linearizable, and safe for any number of
// concurrent goroutines.
type Dictionary[K cmp.Ordered, V any] interface {
	// Find reports the value stored under key.
	Find(key K) (V, bool)
	// Insert adds the item if the key is absent, reporting whether it
	// inserted. Inserting an existing key returns false and does not
	// replace the value (Figure 12).
	Insert(key K, value V) bool
	// Upsert binds key to value whether or not the key is present,
	// replacing the value of a present key with one Compare&Swap.
	Upsert(key K, value V)
	// Delete removes the item with the key, reporting whether an item
	// was removed (Figure 13).
	Delete(key K) bool
}

// OrderedDictionary is a Dictionary that can also iterate its items in
// ascending key order. The sorted list, skip list, and tree provide it;
// the hash table does not.
type OrderedDictionary[K cmp.Ordered, V any] interface {
	Dictionary[K, V]
	// Range calls f for each item in strictly ascending key order until
	// f returns false. Concurrent insertions and deletions may or may not
	// be observed; items present throughout the traversal are observed.
	Range(f func(key K, value V) bool)
	// RangeFrom is Range starting at the first key ≥ start.
	RangeFrom(start K, f func(key K, value V) bool)
	// Len reports the number of items (a snapshot).
	Len() int
}

// PriorityQueue is a concurrent priority queue with keys as priorities,
// backed by the skip list: the bottom level keeps items sorted, so the
// minimum is the first cell and DeleteMin is an ordinary §3 deletion.
type PriorityQueue[K cmp.Ordered, V any] interface {
	// Insert adds an item; false if the priority is already present.
	Insert(priority K, value V) bool
	// Min reports the smallest priority and its value.
	Min() (K, V, bool)
	// DeleteMin removes and returns the item with the smallest priority.
	DeleteMin() (K, V, bool)
	// Len reports the number of items (a snapshot).
	Len() int
}

// NewPriorityQueue returns a skip-list-backed priority queue.
func NewPriorityQueue[K cmp.Ordered, V any](mode MemoryMode) PriorityQueue[K, V] {
	return skiplist.New[K, V](mode.mode())
}

// NewSortedListDict returns the paper's first dictionary structure: a
// single sorted lock-free list (§4.1, Figures 11–13). Operations are
// O(n); it is the structure of choice for small dictionaries and ordered
// iteration.
func NewSortedListDict[K cmp.Ordered, V any](mode MemoryMode) OrderedDictionary[K, V] {
	return dict.NewSortedList[K, V](mode.mode())
}

// NewHashDict returns the paper's hash-table dictionary: nbuckets
// independent sorted lock-free lists (§4.1). With a hash that spreads
// keys evenly, operations cost O(1) expected extra work. hash maps a key
// to a bucket; see HashInt and HashString for the common key types.
func NewHashDict[K cmp.Ordered, V any](nbuckets int, mode MemoryMode, hash func(K) uint64) Dictionary[K, V] {
	return dict.NewHash[K, V](nbuckets, mode.mode(), hash)
}

// NewSkipListDict returns the paper's skip-list dictionary: k levels of
// sorted lock-free lists, insertion bottom-up and deletion top-down
// (§4.1). Operations are O(log n) expected.
func NewSkipListDict[K cmp.Ordered, V any](mode MemoryMode) OrderedDictionary[K, V] {
	return skiplist.New[K, V](mode.mode())
}

// NewBSTDict returns the paper's binary search tree dictionary with
// auxiliary nodes on every edge (§4.2). Find and Insert are O(log n)
// expected on random keys (the tree does not self-balance); see the
// package documentation of internal/bst for the deletion protocol.
func NewBSTDict[K cmp.Ordered, V any](mode MemoryMode) OrderedDictionary[K, V] {
	return bst.New[K, V](mode.mode())
}

// HashInt is a hash function for int keys, suitable for NewHashDict.
func HashInt(k int) uint64 { return dict.HashInt(k) }

// HashString is a hash function for string keys, suitable for NewHashDict.
func HashString(k string) uint64 { return dict.HashString(k) }
