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
// structure was observed empty. Tombstoned cells at the front are items
// already deleted and are passed over.
func (s *SkipList[K, V]) Min() (K, V, bool) {
	var c core.Cursor[item[K, V]]
	s.levels[0].InitCursor(&c)
	defer c.Close()
	for !c.End() {
		t := c.Target()
		if v, ok := t.Item.val.Load(); ok {
			return t.Item.Key, v, true
		}
		c.Next()
	}
	var zk K
	var zv V
	return zk, zv, false
}

// DeleteMin removes and returns the item with the smallest key, reporting
// false if the structure was observed empty. Concurrent DeleteMins race
// on the same front cell; the tombstone Compare&Swap that Delete
// linearizes at picks exactly one winner for each item, the losers move
// on to the next live cell, and the winner unlinks the tower as Delete
// does.
func (s *SkipList[K, V]) DeleteMin() (K, V, bool) {
	var c core.Cursor[item[K, V]]
	s.levels[0].InitCursor(&c)
	defer c.Close()
	for !c.End() {
		d := c.Target()
		s.levels[0].Yield()
		if v, ok := d.Item.val.Tombstone(); ok {
			key := d.Item.Key
			// The head of every level is the natural starting point
			// for the minimum's index cells.
			var frame [framePreds]*mm.Node[item[K, V]]
			s.unlink(&c, d, s.predsIn(&frame))
			return key, v, true
		}
		c.Next()
	}
	var zk K
	var zv V
	return zk, zv, false
}
