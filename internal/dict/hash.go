package dict

import (
	"cmp"

	"valois/internal/core"
	"valois/internal/mm"
)

// Hash is the paper's second dictionary structure (§4.1): "a
// straightforward extension" of the sorted list that hashes each key to
// one of a fixed number of buckets, each an independent lock-free sorted
// list. With a hash function that spreads operations evenly, the expected
// extra work per operation is O(1) — experiment E4 measures this.
type Hash[K cmp.Ordered, V any] struct {
	manager mm.Manager[entry[K, V]] // one reclamation domain for every bucket
	buckets []*SortedList[K, V]
	hash    func(K) uint64
}

var _ Dictionary[int, int] = (*Hash[int, int])(nil)

// NewHash returns a hash dictionary with nbuckets buckets using the given
// hash function. The bucket count is fixed for the structure's lifetime
// (the paper's structure does not resize). nbuckets must be positive.
// All buckets allocate from one manager, as the skip list's levels do, so
// the table has one free list and, under mm.ModeEBR, one epoch domain; RC
// options configure it as in NewSortedList.
func NewHash[K cmp.Ordered, V any](nbuckets int, mode mm.Mode, hash func(K) uint64, opts ...mm.RCOption) *Hash[K, V] {
	if nbuckets < 1 {
		nbuckets = 1
	}
	h := &Hash[K, V]{
		manager: mm.NewManager[entry[K, V]](mode, opts...),
		buckets: make([]*SortedList[K, V], nbuckets),
		hash:    hash,
	}
	for i := range h.buckets {
		h.buckets[i] = &SortedList[K, V]{list: core.New(h.manager)}
	}
	return h
}

func (h *Hash[K, V]) bucket(key K) *SortedList[K, V] {
	return h.buckets[h.hash(key)%uint64(len(h.buckets))]
}

// Find reports the value stored under key.
func (h *Hash[K, V]) Find(key K) (V, bool) { return h.bucket(key).Find(key) }

// Insert adds the item if the key is not present, reporting whether it
// inserted.
func (h *Hash[K, V]) Insert(key K, value V) bool { return h.bucket(key).Insert(key, value) }

// Upsert binds key to value in the key's bucket.
func (h *Hash[K, V]) Upsert(key K, value V) { h.bucket(key).Upsert(key, value) }

// Delete removes the item with the given key, reporting whether an item
// was removed.
func (h *Hash[K, V]) Delete(key K) bool { return h.bucket(key).Delete(key) }

// Len reports the total number of items across buckets (a snapshot).
func (h *Hash[K, V]) Len() int {
	n := 0
	h.Range(func(K, V) bool { n++; return true })
	return n
}

// Range calls f for each item until f returns false, in bucket order:
// bucket by bucket, each in ascending key order, so keys are not
// globally sorted. Each bucket is a SortedList scan, with its guarantees:
// items present for the whole traversal are observed, concurrent
// insertions and deletions may or may not be.
func (h *Hash[K, V]) Range(f func(key K, value V) bool) {
	cont := true
	for _, b := range h.buckets {
		b.Range(func(k K, v V) bool {
			cont = f(k, v)
			return cont
		})
		if !cont {
			return
		}
	}
}

// MemStats returns the allocation counters of the §5 memory manager all
// buckets share.
func (h *Hash[K, V]) MemStats() mm.Stats { return h.manager.Stats() }

// EnableStats turns on extra-work counters on every bucket.
func (h *Hash[K, V]) EnableStats() {
	for _, b := range h.buckets {
		b.EnableStats()
	}
}

// SetYieldHook installs a yield hook on every bucket's list (see
// core.List.SetYieldHook), for the deterministic schedule explorer. Must
// be called before concurrent use; compare SkipList.SetYieldHook.
func (h *Hash[K, V]) SetYieldHook(f func()) {
	for _, b := range h.buckets {
		b.List().SetYieldHook(f)
	}
}

// Bucket returns bucket i (modulo the bucket count), for tests that
// assert per-bucket structural invariants; compare SkipList.Level. The
// bucket's MemStats are the shared manager's, so dictionary-wide.
func (h *Hash[K, V]) Bucket(i int) *SortedList[K, V] {
	return h.buckets[i%len(h.buckets)]
}

// NumBuckets reports the fixed bucket count.
func (h *Hash[K, V]) NumBuckets() int { return len(h.buckets) }

// EnableTorture enables interleaving torture on every bucket; see
// core.List.EnableTorture.
func (h *Hash[K, V]) EnableTorture(period uint32) {
	for _, b := range h.buckets {
		b.EnableTorture(period)
	}
}

// DisableBackoff turns off retry backoff on every bucket (ablation A1).
func (h *Hash[K, V]) DisableBackoff() {
	for _, b := range h.buckets {
		b.DisableBackoff()
	}
}

// WorkStats sums the extra-work counters across buckets.
func (h *Hash[K, V]) WorkStats() core.WorkStats {
	var total core.WorkStats
	for _, b := range h.buckets {
		total.Add(b.List().Stats().Snapshot())
	}
	return total
}

// Close releases every bucket's cells; see SortedList.Close.
func (h *Hash[K, V]) Close() {
	for _, b := range h.buckets {
		b.Close()
	}
}
