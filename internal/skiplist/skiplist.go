// Package skiplist implements the paper's third dictionary structure
// (§4.1): "a lock-free skip list [24] as a collection of k sorted
// singly-linked lists, such that higher level lists contain a subset of
// the cells in lower level lists. As in [23], insertions and deletions are
// performed one level at a time, insertions starting with the bottom level
// and working up, and deletions starting at the top and working down."
//
// Every level is an independent lock-free list from internal/core. The
// bottom level holds all items, and every dictionary operation
// linearizes there — at a bottom cell's value box (dict.Box) or at the
// bottom-level insertion; the higher levels are an index — towers of cells
// for the same key connected by Down pointers — that only accelerates the
// descent. A search walks each level from the closest predecessor found on
// the level above, following the predecessor cell's Down pointer; it can
// resume from a held cell even if that cell has been deleted, thanks to
// cell persistence.
//
// Writes and RangeFrom own one cursor, in their own frame (§2.2: a cursor
// is a process-private object), and move it from level to level
// (Cursor.Seat). Reads need no cursor: Find and FindBatch hold just the
// predecessor cell per key and step with core's cursorless read step
// (List.LinksAfter, List.Succ), so a batch can interleave the descents
// of many keys and overlap their cache misses (see FindBatch). Either
// way an operation takes one epoch pin under mm.ModeEBR, so the
// predecessor cells it remembers are raw pointers there: cell
// persistence keeps a deleted predecessor's fields intact, and the grace
// period keeps it off the free list until the operation unpins. Under
// mm.ModeRC the remembered predecessors are counted references; under
// mm.ModeGC the collector keeps them.
//
// Because index levels are hints, an insertion building a tower upward can
// race a deletion tearing it down top-down. No index cell outlives its
// bottom cell, though: Delete sweeps every level for the key after
// tombstoning the bottom cell, and the insertion, after linking an index
// cell, checks the bottom cell's box once more and unlinks the index cell
// itself if the tombstone got there first — so one of the two always sees
// the other. (An index cell left behind would pin its dead bottom cell,
// and every dead cell chained behind that one, until the key's next
// deletion.)
package skiplist

import (
	"cmp"
	"sync/atomic"

	"valois/internal/core"
	"valois/internal/dict"
	"valois/internal/mm"
)

const defaultMaxLevel = 16

// framePreds is the size of the per-operation predecessor array kept in
// the operation's frame; a skip list built WithMaxLevel above it falls
// back to a heap slice per operation.
const framePreds = 2 * defaultMaxLevel

// item is what a cell stores: the key at every level, the value's Box at
// the bottom level (index cells leave it empty), and the Down pointer into
// the next lower level (nil at the bottom). Down is a counted reference
// under mm.RC; the manager's reclaim extractor releases it when the cell
// is reclaimed. Published items are read through their cell, never
// copied: the box is written concurrently.
type item[K cmp.Ordered, V any] struct {
	Key  K
	val  dict.Box[V]
	Down *mm.Node[item[K, V]]
}

// SkipList is a non-blocking skip-list dictionary.
type SkipList[K cmp.Ordered, V any] struct {
	manager mm.Manager[item[K, V]]
	levels  []*core.List[item[K, V]] // levels[0] is the bottom (authoritative) list
	rng     atomic.Uint64            // state for deterministic tower heights
}

var _ dict.Dictionary[int, int] = (*SkipList[int, int])(nil)

// Option configures a SkipList.
type Option interface {
	apply(*options)
}

type options struct {
	maxLevel int
	seed     uint64
}

type maxLevelOption int

func (m maxLevelOption) apply(o *options) { o.maxLevel = int(m) }

// WithMaxLevel sets the number of levels k, which the paper suggests
// choosing as Θ(log N) for N expected items. The default is 16.
func WithMaxLevel(k int) Option { return maxLevelOption(k) }

type seedOption uint64

func (s seedOption) apply(o *options) { o.seed = uint64(s) }

// WithSeed seeds the tower-height generator, for reproducible structure in
// tests and benchmarks.
func WithSeed(seed uint64) Option { return seedOption(seed) }

// New returns an empty skip-list dictionary under the given memory mode.
func New[K cmp.Ordered, V any](mode mm.Mode, opts ...Option) *SkipList[K, V] {
	o := options{maxLevel: defaultMaxLevel, seed: 0x5eed}
	for _, opt := range opts {
		opt.apply(&o)
	}
	if o.maxLevel < 1 {
		o.maxLevel = 1
	}
	manager := mm.NewManager[item[K, V]](mode)
	mm.SetReclaimExtractor(manager, downOf[K, V])
	return newOn(manager, o.maxLevel, o.seed)
}

// downOf is the managers' reclaim extractor: a reclaimed cell gives up its
// counted Down reference.
func downOf[K cmp.Ordered, V any](it *item[K, V]) (*mm.Node[item[K, V]], *mm.Node[item[K, V]]) {
	return it.Down, nil
}

// newOn builds the levels over one shared manager.
func newOn[K cmp.Ordered, V any](manager mm.Manager[item[K, V]], maxLevel int, seed uint64) *SkipList[K, V] {
	s := &SkipList[K, V]{
		manager: manager,
		levels:  make([]*core.List[item[K, V]], maxLevel),
	}
	s.rng.Store(seed)
	for i := range s.levels {
		s.levels[i] = core.New(manager)
	}
	return s
}

// Levels returns the number of levels k.
func (s *SkipList[K, V]) Levels() int { return len(s.levels) }

// Level exposes one level's list for structural checks in tests.
func (s *SkipList[K, V]) Level(i int) *core.List[item[K, V]] { return s.levels[i] }

// MemStats returns the allocation counters of the skip list's §5 memory
// manager (all levels share one manager).
func (s *SkipList[K, V]) MemStats() mm.Stats { return s.manager.Stats() }

// EnableStats turns on the extra-work counters on every level.
func (s *SkipList[K, V]) EnableStats() {
	for _, l := range s.levels {
		l.EnableStats()
	}
}

// SetYieldHook installs a yield hook on every level's list (see
// core.List.SetYieldHook), for the deterministic schedule explorer. Must
// be called before the structure is shared.
func (s *SkipList[K, V]) SetYieldHook(f func()) {
	for _, l := range s.levels {
		l.SetYieldHook(f)
	}
}

// WorkStats sums the extra-work counters across levels.
func (s *SkipList[K, V]) WorkStats() core.WorkStats {
	var total core.WorkStats
	for _, l := range s.levels {
		total.Add(l.Stats().Snapshot())
	}
	return total
}

// height draws a tower height with geometric distribution p=1/2, in
// [1, maxLevel]. The generator is a shared SplitMix64 counter, so heights
// are deterministic for a given seed regardless of scheduling.
func (s *SkipList[K, V]) height() int {
	x := dict.HashUint64(s.rng.Add(1))
	h := 1
	for x&1 == 1 && h < len(s.levels) {
		h++
		x >>= 1
	}
	return h
}

// open opens the operation's cursor (and, under mm.ModeEBR, its one
// epoch pin) at the head of the top level; descend takes it from there.
func (s *SkipList[K, V]) open(c *core.Cursor[item[K, V]]) {
	s.levels[len(s.levels)-1].InitCursor(c)
}

// seek advances the cursor until it visits the first cell with key ≥ k.
// It is findFrom's traversal (Figure 11) without the equality decision.
func seek[K cmp.Ordered, V any](c *core.Cursor[item[K, V]], k K) {
	for !c.End() && c.Target().Item.Key < k {
		if !c.Next() {
			return
		}
	}
}

// predsIn returns the operation's per-level predecessor slice, all nil
// (every level's head), backed by the frame array whenever it is large
// enough.
func (s *SkipList[K, V]) predsIn(frame *[framePreds]*mm.Node[item[K, V]]) []*mm.Node[item[K, V]] {
	if len(s.levels) > len(frame) {
		return make([]*mm.Node[item[K, V]], len(s.levels))
	}
	return frame[:len(s.levels)]
}

// descend takes a cursor opened by open down the levels, searching each
// "from the closest predecessor found on the level above" (§4.1), and
// leaves it on the bottom level visiting the first cell with key ≥ k. If
// preds is non-nil, descend records for each level the closest
// predecessor cell with key < k (nil when that is the level's head
// dummy), each carrying a Hold the caller must hand to releasePreds.
func (s *SkipList[K, V]) descend(c *core.Cursor[item[K, V]], k K, preds []*mm.Node[item[K, V]]) {
	for i := len(s.levels) - 1; ; i-- {
		seek(c, k)
		p := c.PreCell()
		if p.Kind() != mm.KindCell {
			p = nil
		}
		if preds != nil {
			s.levels[i].Hold(p)
			preds[i] = p
		}
		if i == 0 {
			return
		}
		var down *mm.Node[item[K, V]]
		if p != nil {
			// p's Down reference stays alive while the cursor holds p;
			// Seat takes the cursor's own hold before letting go of p.
			down = p.Item.Down
		}
		c.Seat(s.levels[i-1], down)
	}
}

func (s *SkipList[K, V]) releasePreds(preds []*mm.Node[item[K, V]]) {
	for i, p := range preds {
		s.levels[i].Unhold(p) // Unhold(nil) is a no-op
	}
}

// Find reports the value stored under key. It is one descent of
// FindBatch, walked alone: down to the bottom-level predecessor, then on
// to the key's cell. Membership is decided by the bottom level; higher
// levels only provide the starting point.
func (s *SkipList[K, V]) Find(key K) (V, bool) {
	top := s.levels[len(s.levels)-1]
	g := top.Pin()
	defer top.Unpin(g)
	d := s.start()
	for !s.step(&d, key) {
	}
	return s.finish(d.pred, key)
}

// readRun is the most keys FindBatch descends together; longer batches
// go in runs of this many. A run's descents live in findRun's frame.
const readRun = 64

// FindBatch looks up keys[i] into vals[i] and oks[i], as if by one Find
// per key in order: each lookup linearizes after the one before it.
// vals and oks must be at least as long as keys.
//
// The lookups of a run are located together. Phase 1 takes one step of
// every key's descent per round — on along its level, or down a level
// once the step finds the level's predecessor — and loads the links of
// the key's next step (List.LinksAfter) before moving to the next key,
// so the cache misses of up to readRun independent descents overlap
// instead of queuing. It ends on each key's bottom-level predecessor and
// reads no value box, so it decides nothing. Phase 2 then finishes the
// keys in order, each by walking the bottom level on from its
// predecessor, reading the links afresh, to the key's cell and loading
// its box, or to the first larger key: that walk is the lookup's
// linearization point, exactly as in a lone Find.
func (s *SkipList[K, V]) FindBatch(keys []K, vals []V, oks []bool) {
	for len(keys) > readRun {
		s.findRun(keys[:readRun], vals[:readRun], oks[:readRun])
		keys, vals, oks = keys[readRun:], vals[readRun:], oks[readRun:]
	}
	s.findRun(keys, vals, oks)
}

// descent is one key's position on its way down, in Find or in
// FindBatch's phase 1: a held cell of level lvl (a cell with a smaller
// key, or the level's First) and the links after it, loaded for the
// next step; or, once lvl is -1, the key's bottom-level predecessor
// alone.
type descent[K cmp.Ordered, V any] struct {
	pred  *mm.Node[item[K, V]]
	links core.Links[item[K, V]]
	lvl   int
}

// findRun is FindBatch for at most readRun keys, under one epoch pin.
func (s *SkipList[K, V]) findRun(keys []K, vals []V, oks []bool) {
	var frame [readRun]descent[K, V]
	ds := frame[:len(keys)]
	top := s.levels[len(s.levels)-1]
	g := top.Pin()
	defer top.Unpin(g)
	for i := range ds {
		ds[i] = s.start()
	}
	for left := len(ds); left > 0; { // phase 1, one step per key per round
		for i := range ds {
			if ds[i].lvl >= 0 && s.step(&ds[i], keys[i]) {
				left--
			}
		}
	}
	for i := range ds { // phase 2, in request order
		vals[i], oks[i] = s.finish(ds[i].pred, keys[i])
	}
}

// start begins a descent at the top level's First, holding it.
func (s *SkipList[K, V]) start() descent[K, V] {
	top := s.levels[len(s.levels)-1]
	first := top.First()
	top.Hold(first)
	return descent[K, V]{pred: first, links: top.LinksAfter(first), lvl: len(s.levels) - 1}
}

// step takes one step of d's descent toward k: on to the next cell of
// its level if that cell's key is below k, else down a level from the
// predecessor it holds, "the closest predecessor found on the level
// above" (§4.1). It reports whether d has reached its bottom-level
// predecessor; otherwise it loads the links of d's next step.
func (s *SkipList[K, V]) step(d *descent[K, V], k K) bool {
	l := s.levels[d.lvl]
	t := l.Succ(d.pred, d.links)
	if t != l.Last() && t.Item.Key < k {
		l.Unhold(d.pred)
		d.pred = t
		d.links = l.LinksAfter(t)
		return false
	}
	l.Unhold(t)
	if d.lvl == 0 {
		d.lvl = -1
		return true
	}
	d.lvl--
	below := s.levels[d.lvl]
	down := below.First()
	if d.pred.Kind() == mm.KindCell {
		down = d.pred.Item.Down // alive while pred is held
	}
	// Where Cursor.Seat yields: a concurrent deletion may retire down
	// before the descent resumes from it.
	below.Yield()
	below.Hold(down)
	l.Unhold(d.pred)
	d.pred = down
	d.links = below.LinksAfter(down)
	return false
}

// finish is phase 2 of FindBatch for one key: from its bottom-level
// predecessor p, which it gives up, on to the first cell with key ≥ k.
// A hit linearizes at the box load, as in dict.SortedList.Find; a miss
// at the read of the link to a larger key or to Last.
func (s *SkipList[K, V]) finish(p *mm.Node[item[K, V]], k K) (V, bool) {
	base := s.levels[0]
	for {
		t := base.Succ(p, base.LinksAfter(p))
		base.Unhold(p)
		if t != base.Last() && t.Item.Key < k {
			p = t
			continue
		}
		var v V
		var ok bool
		if t != base.Last() && t.Item.Key == k {
			base.Yield()
			v, ok = t.Item.val.Load()
		}
		base.Unhold(t)
		return v, ok
	}
}

// Insert adds the item if the key is not present, reporting whether it
// inserted. The bottom-level insertion is the linearization point and
// enforces uniqueness exactly as Figure 12 does; index cells are then
// added bottom-up (§4.1).
func (s *SkipList[K, V]) Insert(key K, value V) bool { return s.put(key, value, false) }

// Upsert binds key to value: one Compare&Swap on the box of the key's
// live bottom cell, or Insert's path when there is none.
func (s *SkipList[K, V]) Upsert(key K, value V) { s.put(key, value, true) }

// put is dict.SortedList's put on the bottom level, started where the
// descent ended, followed by the new cell's tower.
func (s *SkipList[K, V]) put(key K, value V, replace bool) bool {
	var frame [framePreds]*mm.Node[item[K, V]]
	preds := s.predsIn(&frame)
	var c core.Cursor[item[K, V]]
	s.open(&c)
	defer c.Close()
	defer s.releasePreds(preds)
	s.descend(&c, key, preds)

	base := s.levels[0]
	var q, a *mm.Node[item[K, V]]
	for {
		seek(&c, key)
		if t := c.Target(); !c.End() && t.Item.Key == key {
			base.Yield()
			box := &t.Item.val
			if replace && box.Replace(value) || !replace && box.Live() {
				base.ReleaseNodes(q, a)
				return replace
			}
			c.TryDelete() // tombstoned: help its Delete unlink it
		} else {
			if q == nil {
				if q, a = base.AllocInsertNodes(item[K, V]{Key: key}); q == nil {
					return false
				}
				q.Item.val.Set(value)
			}
			if c.TryInsert(q, a) {
				break
			}
			base.Stats().AddInsertRetries(1)
		}
		c.Update()
	}
	base.ReleaseNodes(a) // the auxiliary node's allocation reference
	s.buildTower(&c, q, preds)
	return true
}

// buildTower adds the index cells of the new bottom cell q bottom-up,
// consuming q's allocation reference, which keeps q alive while it
// becomes the first Down target. It races q's deletion as the package
// comment describes.
func (s *SkipList[K, V]) buildTower(c *core.Cursor[item[K, V]], q *mm.Node[item[K, V]], preds []*mm.Node[item[K, V]]) {
	m := s.manager
	key := q.Item.Key
	h := s.height()
	below := q // counted: the allocation reference we have not released yet
	for i := 1; i < h; i++ {
		if !q.Item.val.Live() {
			// A concurrent Delete already tombstoned the bottom cell;
			// stop building — its sweep may have passed our level.
			break
		}
		lvl := s.levels[i]
		m.AddRef(below) // counted: the Down pointer stored in the new cell
		iq, ia := lvl.AllocInsertNodes(item[K, V]{Key: key, Down: below})
		if iq == nil {
			m.Release(below)
			break
		}
		inserted := false
		c.Seat(lvl, preds[i])
		for {
			seek(c, key)
			if !c.End() && c.Target().Item.Key == key {
				break // an index cell for the key is already here
			}
			if c.TryInsert(iq, ia) {
				inserted = true
				break
			}
			lvl.Stats().AddInsertRetries(1)
			c.Update()
		}
		if !inserted {
			lvl.ReleaseNodes(iq, ia) // also drops the Down reference via reclaim
			break
		}
		m.Release(below) // drop our hold; iq's Down keeps it
		below = iq
		m.AddRef(below)
		lvl.ReleaseNodes(iq, ia)
		if !q.Item.val.Live() {
			// The bottom cell is deleted. A sweep that came after iq was
			// linked has removed iq; one that came before cannot have
			// been missed by this check, so then removing iq falls to us.
			for {
				c.Update() // the cursor went stale when iq was linked under it
				seek(c, key)
				if c.Target() != iq || c.TryDelete() {
					break
				}
				lvl.Stats().AddDeleteRetries(1)
			}
			break
		}
	}
	m.Release(below)
}

// Delete removes the item with the given key, reporting whether an item
// was removed. It linearizes at the Compare&Swap that tombstones the
// key's live bottom cell, then unlinks the tower.
func (s *SkipList[K, V]) Delete(key K) bool {
	var frame [framePreds]*mm.Node[item[K, V]]
	preds := s.predsIn(&frame)
	var c core.Cursor[item[K, V]]
	s.open(&c)
	defer c.Close()
	defer s.releasePreds(preds)
	s.descend(&c, key, preds)
	d := c.Target()
	if c.End() || d.Item.Key != key {
		return false
	}
	if _, ok := d.Item.val.Tombstone(); !ok {
		return false
	}
	s.unlink(&c, d, preds)
	return true
}

// unlink removes the tombstoned bottom cell d and its tower: index cells
// top-down (§4.1), then d itself by Figure 13's loop, which stops once d
// is no longer where the key is — a helper unlinked it. The one index
// sweep follows the tombstone, which is all buildTower needs.
func (s *SkipList[K, V]) unlink(c *core.Cursor[item[K, V]], d *mm.Node[item[K, V]], preds []*mm.Node[item[K, V]]) {
	key := d.Item.Key
	base := s.levels[0]
	base.Hold(d) // refs: d is compared by identity after the cursor leaves it
	defer base.Unhold(d)
	s.deleteIndex(c, key, preds)
	c.Seat(base, preds[0])
	for {
		seek(c, key)
		if c.Target() != d || c.TryDelete() {
			return
		}
		base.Stats().AddDeleteRetries(1)
		c.Update()
	}
}

// deleteIndex removes every index cell with the key from levels top..1,
// moving the operation's cursor to each level's recorded predecessor.
func (s *SkipList[K, V]) deleteIndex(c *core.Cursor[item[K, V]], key K, preds []*mm.Node[item[K, V]]) {
	for i := len(s.levels) - 1; i >= 1; i-- {
		lvl := s.levels[i]
		c.Seat(lvl, preds[i])
		for {
			seek(c, key)
			if c.End() || c.Target().Item.Key != key {
				break
			}
			if !c.TryDelete() {
				lvl.Stats().AddDeleteRetries(1)
			}
			c.Update()
		}
	}
}

// Len reports the number of items (bottom-level snapshot).
func (s *SkipList[K, V]) Len() int {
	n := 0
	s.Range(func(K, V) bool { n++; return true })
	return n
}

// Range calls f for each item in strictly ascending key order until f
// returns false, traversing the bottom level.
func (s *SkipList[K, V]) Range(f func(key K, value V) bool) {
	var c core.Cursor[item[K, V]]
	s.levels[0].InitCursor(&c)
	defer c.Close()
	scan(&c, nil, f)
}

// RangeFrom is Range starting at the first key ≥ start, using the index
// levels to reach the starting position in O(log n) instead of scanning
// the bottom level.
func (s *SkipList[K, V]) RangeFrom(start K, f func(key K, value V) bool) {
	var c core.Cursor[item[K, V]]
	s.open(&c)
	defer c.Close()
	s.descend(&c, start, nil)
	scan(&c, &start, f)
}

// scan reports the live bottom-level items from the cursor onward,
// skipping keys below *start (if start is non-nil) and tombstoned cells.
// As with dict.SortedList.Range, the sweep may rejoin the list at an
// earlier position after passing through concurrently deleted cells, so
// items with keys not above the last reported key are skipped to keep the
// output monotone.
func scan[K cmp.Ordered, V any](c *core.Cursor[item[K, V]], start *K, f func(key K, value V) bool) {
	first := true
	var last K
	for !c.End() {
		it := &c.Target().Item
		// Once an item is reported, key > last implies key ≥ *start.
		if first && (start == nil || it.Key >= *start) || !first && it.Key > last {
			if v, ok := it.val.Load(); ok {
				if !f(it.Key, v) {
					return
				}
				first = false
				last = it.Key
			}
		}
		if !c.Next() {
			return
		}
	}
}

// Close releases every level's cells. Under an RC manager it must only be
// called once no operations are in flight.
func (s *SkipList[K, V]) Close() {
	for _, l := range s.levels {
		l.Close()
	}
}
