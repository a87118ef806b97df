package skiplist

import (
	"valois/internal/core"
	"valois/internal/mm"
)

// Priority-queue operations on the skip list. A concurrent priority queue
// is the workload of Huang & Weihl's study the paper cites for contention
// management ([15], §2.1); with keys as priorities, the skip list's
// bottom level makes the minimum the first cell, and deleting it is an
// ordinary bottom-level deletion — the §3 machinery does all the work.

// Min returns the smallest key and its value, reporting false if the
// structure was observed empty.
func (s *SkipList[K, V]) Min() (K, V, bool) {
	var c core.Cursor[item[K, V]]
	s.levels[0].InitCursor(&c)
	defer c.Close()
	if c.End() {
		var zk K
		var zv V
		return zk, zv, false
	}
	it := c.Item()
	return it.Key, it.Value, true
}

// DeleteMin removes and returns the item with the smallest key, reporting
// false if the structure was observed empty. Concurrent DeleteMins race
// on the same front cell; exactly one wins each item (the bottom-level
// TryDelete is the linearization point) and the losers retry on the next
// minimum.
func (s *SkipList[K, V]) DeleteMin() (K, V, bool) {
	var c core.Cursor[item[K, V]]
	s.levels[0].InitCursor(&c)
	defer c.Close()
	for {
		if c.End() {
			var zk K
			var zv V
			return zk, zv, false
		}
		it := c.Item()
		if c.TryDelete() {
			// Remove the tower's index cells; the head of every level is
			// the natural starting point for the minimum.
			var frame [framePreds]*mm.Node[item[K, V]]
			s.deleteIndex(&c, it.Key, s.predsIn(&frame))
			return it.Key, it.Value, true
		}
		s.levels[0].Stats().AddDeleteRetries(1)
		c.Reset()
	}
}
