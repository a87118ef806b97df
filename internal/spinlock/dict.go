package spinlock

import (
	"cmp"

	"valois/internal/dict"
)

// LockedList is the conventional alternative to the paper's structure: a
// plain sequential sorted singly-linked list protected by one lock. It is
// the baseline for experiment E1 ("competitive with spin locks") and,
// with a Delay hook installed, for E2 (a delayed process inside the
// critical section stalls every other process — the convoying of §1).
type LockedList[K cmp.Ordered, V any] struct {
	mu   Locker
	head *seqNode[K, V]
	// Delay, if non-nil, is invoked once per operation while the lock is
	// held, simulating a page fault or preemption inside the critical
	// section (§1). It must be set before the structure is shared.
	Delay func()
}

type seqNode[K cmp.Ordered, V any] struct {
	key   K
	value V
	next  *seqNode[K, V]
}

var _ dict.Dictionary[int, int] = (*LockedList[int, int])(nil)

// NewLockedList returns an empty lock-based sorted-list dictionary
// protected by the given lock.
func NewLockedList[K cmp.Ordered, V any](mu Locker) *LockedList[K, V] {
	return &LockedList[K, V]{mu: mu}
}

// SetDelay installs (or, with nil, removes) the critical-section delay
// hook. It must not race with operations; the workload runner installs it
// before starting and removes it after every worker has stopped.
func (l *LockedList[K, V]) SetDelay(delay func()) { l.Delay = delay }

func (l *LockedList[K, V]) delay() {
	if l.Delay != nil {
		l.Delay()
	}
}

// search returns the first node with key ≥ k and its predecessor (nil for
// the head). Caller must hold the lock.
func (l *LockedList[K, V]) search(k K) (prev, cur *seqNode[K, V]) {
	cur = l.head
	for cur != nil && cur.key < k {
		prev, cur = cur, cur.next
	}
	return prev, cur
}

// Find reports the value stored under key.
func (l *LockedList[K, V]) Find(key K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.delay()
	_, cur := l.search(key)
	if cur != nil && cur.key == key {
		return cur.value, true
	}
	var zero V
	return zero, false
}

// Insert adds the item if the key is not present.
func (l *LockedList[K, V]) Insert(key K, value V) bool { return l.put(key, value, false) }

// Upsert binds key to value, replacing the value of a present key.
func (l *LockedList[K, V]) Upsert(key K, value V) { l.put(key, value, true) }

// put inserts the item, or finds the key present and replaces its value
// when replace is set; it reports whether the binding was written.
func (l *LockedList[K, V]) put(key K, value V, replace bool) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.delay()
	prev, cur := l.search(key)
	if cur != nil && cur.key == key {
		if replace {
			cur.value = value
		}
		return replace
	}
	n := &seqNode[K, V]{key: key, value: value, next: cur}
	if prev == nil {
		l.head = n
	} else {
		prev.next = n
	}
	return true
}

// Delete removes the item with the given key.
func (l *LockedList[K, V]) Delete(key K) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.delay()
	prev, cur := l.search(key)
	if cur == nil || cur.key != key {
		return false
	}
	if prev == nil {
		l.head = cur.next
	} else {
		prev.next = cur.next
	}
	return true
}

// Len reports the number of items.
func (l *LockedList[K, V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for cur := l.head; cur != nil; cur = cur.next {
		n++
	}
	return n
}

// LockedHash is a hash table of LockedLists with one lock per bucket —
// the fine-grained locking baseline for the hash-dictionary experiments.
type LockedHash[K cmp.Ordered, V any] struct {
	buckets []*LockedList[K, V]
	hash    func(K) uint64
}

var _ dict.Dictionary[int, int] = (*LockedHash[int, int])(nil)

// NewLockedHash returns a lock-based hash dictionary with nbuckets
// buckets; newLock constructs the per-bucket lock.
func NewLockedHash[K cmp.Ordered, V any](nbuckets int, hash func(K) uint64, newLock func() Locker) *LockedHash[K, V] {
	if nbuckets < 1 {
		nbuckets = 1
	}
	h := &LockedHash[K, V]{
		buckets: make([]*LockedList[K, V], nbuckets),
		hash:    hash,
	}
	for i := range h.buckets {
		h.buckets[i] = NewLockedList[K, V](newLock())
	}
	return h
}

// SetDelay installs a critical-section delay hook on every bucket.
func (h *LockedHash[K, V]) SetDelay(delay func()) {
	for _, b := range h.buckets {
		b.Delay = delay
	}
}

func (h *LockedHash[K, V]) bucket(key K) *LockedList[K, V] {
	return h.buckets[h.hash(key)%uint64(len(h.buckets))]
}

// Find reports the value stored under key.
func (h *LockedHash[K, V]) Find(key K) (V, bool) { return h.bucket(key).Find(key) }

// Insert adds the item if the key is not present.
func (h *LockedHash[K, V]) Insert(key K, value V) bool { return h.bucket(key).Insert(key, value) }

// Upsert binds key to value in the key's bucket.
func (h *LockedHash[K, V]) Upsert(key K, value V) { h.bucket(key).Upsert(key, value) }

// Delete removes the item with the given key.
func (h *LockedHash[K, V]) Delete(key K) bool { return h.bucket(key).Delete(key) }
