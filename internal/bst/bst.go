package bst

import (
	"cmp"
	"sync/atomic"

	"valois/internal/dict"
	"valois/internal/mm"
	"valois/internal/primitive"
)

// item is a tree cell's payload: the key, the value's Box, and the cell's
// two auxiliary nodes. Key, Left and Right are immutable once the cell is
// published; the mutable state is the box and those auxiliary nodes' next
// pointers, so a published item is read through its cell, never copied.
type item[K cmp.Ordered, V any] struct {
	Key   K
	val   dict.Box[V]
	Left  *mm.Node[item[K, V]]
	Right *mm.Node[item[K, V]]
}

// Tree is a non-blocking binary search tree dictionary (§4.2).
type Tree[K cmp.Ordered, V any] struct {
	manager mm.Manager[item[K, V]]
	ebr     bool                 // manager pins epochs: traversal references are no-ops
	pinner  mm.Pinner            // non-nil exactly when ebr is true
	root    *mm.Node[item[K, V]] // anchor auxiliary node; root.next is the tree
	empty   *mm.Node[item[K, V]] // shared sentinel for an empty subtree
	stats   Stats
	yield   func() // see SetYieldHook
}

// The tree's reference operations split into the same two families as the
// list's (see internal/core): traversal holds — the per-hop SafeReads and
// the held-cell copies a descent keeps — go through safeRead/hold/drop
// and vanish under the EBR manager, whose per-operation pin protects
// every reachable cell instead; references materialized as stored
// pointers (edges, descriptor links, the Item's two auxiliary nodes) stay
// direct manager.AddRef/Release calls and remain counted under both RC
// and EBR, so dropping a cell's last edge is what retires it.

func (t *Tree[K, V]) safeRead(p *atomic.Pointer[mm.Node[item[K, V]]]) *mm.Node[item[K, V]] {
	if t.ebr {
		return p.Load()
	}
	return t.manager.SafeRead(p)
}

// hold duplicates a traversal reference to a cell the caller can reach.
func (t *Tree[K, V]) hold(n *mm.Node[item[K, V]]) {
	if !t.ebr {
		t.manager.AddRef(n)
	}
}

// drop releases a traversal reference acquired by safeRead or hold.
func (t *Tree[K, V]) drop(n *mm.Node[item[K, V]]) {
	if !t.ebr {
		t.manager.Release(n)
	}
}

// pin opens an epoch-protected region for one tree operation under the
// EBR manager; a no-op guard otherwise.
func (t *Tree[K, V]) pin() (mm.Guard, bool) {
	if t.pinner == nil {
		return mm.Guard{}, false
	}
	return t.pinner.Pin(), true
}

func (t *Tree[K, V]) unpin(g mm.Guard, pinned bool) {
	if pinned {
		t.pinner.Unpin(g)
	}
}

var _ dict.Dictionary[int, int] = (*Tree[int, int])(nil)

// Stats counts the extra work done by tree operations, in the spirit of
// §4.1's analysis: operation retries, traversal restarts caused by
// in-progress deletions, and helping.
type Stats struct {
	insertRetries atomic.Int64
	restarts      atomic.Int64
	helps         atomic.Int64
	moveScans     atomic.Int64
}

// TreeWorkStats is a plain snapshot of a tree's Stats.
type TreeWorkStats struct {
	// InsertRetries counts failed publication Compare&Swaps.
	InsertRetries int64
	// Restarts counts traversals that restarted from the root after
	// detecting a short-circuited edge.
	Restarts int64
	// Helps counts completed helping calls on other processes' deletions.
	Helps int64
	// MoveScans counts successor-path scans for two-child deletions.
	MoveScans int64
}

// ExtraWork sums all components.
func (w TreeWorkStats) ExtraWork() int64 {
	return w.InsertRetries + w.Restarts + w.Helps + w.MoveScans
}

// New returns an empty tree under the given memory mode.
func New[K cmp.Ordered, V any](mode mm.Mode) *Tree[K, V] {
	manager := mm.NewManager[item[K, V]](mode)
	mm.SetReclaimExtractor(manager, func(it *item[K, V]) (*mm.Node[item[K, V]], *mm.Node[item[K, V]]) {
		return it.Left, it.Right
	})
	t := &Tree[K, V]{manager: manager}
	t.pinner, t.ebr = manager.(mm.Pinner)
	t.empty = manager.Alloc()
	t.empty.SetKind(mm.KindLast) // "normal" terminal: traversals stop here
	t.root = manager.Alloc()
	t.root.SetKind(mm.KindAux)
	t.root.StoreNext(t.empty)
	manager.AddRef(t.empty) // refs: edge root→empty
	// The allocation references of root and empty are the tree's own.
	return t
}

// Manager returns the tree's memory manager, for leak checks in tests.
func (t *Tree[K, V]) Manager() mm.Manager[item[K, V]] { return t.manager }

// MemStats returns the allocation counters of the tree's §5 memory manager.
func (t *Tree[K, V]) MemStats() mm.Stats { return t.manager.Stats() }

// WorkStats returns a snapshot of the tree's extra-work counters.
func (t *Tree[K, V]) WorkStats() TreeWorkStats {
	return TreeWorkStats{
		InsertRetries: t.stats.insertRetries.Load(),
		Restarts:      t.stats.restarts.Load(),
		Helps:         t.stats.helps.Load(),
		MoveScans:     t.stats.moveScans.Load(),
	}
}

// Close releases the tree's root references; under mm.RC this reclaims
// every cell. It must only be called once no operations are in flight.
func (t *Tree[K, V]) Close() {
	t.manager.Release(t.root)
	t.manager.Release(t.empty)
	t.root, t.empty = nil, nil
}

// SetYieldHook installs a function invoked before every structural
// Compare&Swap and at each traversal hop, for the deterministic schedule
// explorer (internal/sched) and torture tests. Must be set before the
// tree is shared; nil (the default) disables it.
func (t *Tree[K, V]) SetYieldHook(f func()) { t.yield = f }

func (t *Tree[K, V]) maybeYield() {
	if t.yield != nil {
		t.yield()
	}
}

// casEdge swings an auxiliary node's next pointer from old to new with
// reference accounting, reporting success.
func (t *Tree[K, V]) casEdge(a, old, new *mm.Node[item[K, V]]) bool {
	t.maybeYield()
	if a.CASNext(old, new) {
		t.manager.AddRef(new)  // refs: the edge now points at new
		t.manager.Release(old) // refs: the edge no longer points at old
		return true
	}
	return false
}

// followEdge walks from the held auxiliary node a across any chain of
// auxiliary nodes to the first terminal (a cell or the empty sentinel).
// It returns the terminal and the last auxiliary node of the chain — the
// one whose next was observed to be the terminal — both with a traversal
// reference for the caller. a itself is not released.
func (t *Tree[K, V]) followEdge(a *mm.Node[item[K, V]]) (term, lastAux *mm.Node[item[K, V]]) {
	t.maybeYield()
	last := a
	t.hold(last)
	cur := t.safeRead(last.NextAddr())
	for cur.IsAux() {
		t.drop(last)
		last = cur
		cur = t.safeRead(last.NextAddr())
	}
	return cur, last
}

// locate descends from the root. If it finds a cell with the key it
// returns (cell, parentAux): the cell and the auxiliary node whose next
// was observed to be the cell. Otherwise it returns (nil, slotAux): the
// auxiliary node whose next was observed to be the empty sentinel, where
// the key would be inserted. Both returned nodes carry a counted
// reference for the caller.
//
// If a traversal step lands back on the cell it descended from — the
// signature of a short-circuited edge (§4.2) — it helps the deletion in
// progress and restarts from the root.
func (t *Tree[K, V]) locate(k K) (cell, aux *mm.Node[item[K, V]]) {
	for {
		var prev *mm.Node[item[K, V]] // held cell we last descended from
		a := t.root
		t.hold(a)
		for {
			n, la := t.followEdge(a)
			t.drop(a)
			if n == prev {
				// Short-circuit: the edge led back to the cell we came
				// from, so prev is being deleted. Help, then restart.
				t.drop(la)
				t.drop(n)
				t.help(prev)
				t.drop(prev)
				t.stats.restarts.Add(1)
				break
			}
			t.drop(prev)
			prev = nil
			if n == t.empty {
				t.drop(n)
				return nil, la
			}
			if n.Item.Key == k {
				return n, la
			}
			t.drop(la)
			side := n.Item.Left
			if k > n.Item.Key {
				side = n.Item.Right
			}
			t.hold(side) // alive while n is held
			prev = n     // keep n held for the revisit check
			a = side
		}
	}
}

// Find reports the value stored under key. A hit linearizes at the box
// load: a live box means the cell has not been claimed for unlinking.
func (t *Tree[K, V]) Find(key K) (V, bool) {
	g, pinned := t.pin()
	defer t.unpin(g, pinned)
	n, a := t.locate(key)
	t.drop(a)
	if n == nil {
		var zero V
		return zero, false
	}
	v, ok := n.Item.val.Load()
	t.drop(n)
	return v, ok
}

// Insert adds the item if the key is not present, reporting whether it
// inserted. Insertion happens only at the leaves: one Compare&Swap of an
// empty edge to the new cell (§4.2).
func (t *Tree[K, V]) Insert(key K, value V) bool { return t.put(key, value, false) }

// Upsert binds key to value: one Compare&Swap on the box of the key's
// live cell, or Insert's leaf insertion when there is none.
func (t *Tree[K, V]) Upsert(key K, value V) { t.put(key, value, true) }

// put locates the key and decides the present-key case by replace, as
// dict.SortedList's put does. A tombstoned cell on the search path is an
// absent key whose unlink has not finished: put finishes it (claiming the
// cell itself if its Delete has not yet) and searches again, so a new
// cell never joins the tree beside the old one. Finishing takes the
// claimer itself when the cell has two children (the subtree move is
// claimer-only, see run), so put backs off (§2.1) while it waits. The new
// cell is built only once the key is known absent.
func (t *Tree[K, V]) put(key K, value V, replace bool) bool {
	m := t.manager
	g, pinned := t.pin()
	defer t.unpin(g, pinned)
	var cell *mm.Node[item[K, V]]
	var backoff primitive.Backoff
	for {
		n, a := t.locate(key)
		if n != nil {
			t.maybeYield()
			box := &n.Item.val
			done := replace && box.Replace(value) || !replace && box.Live()
			if !done {
				t.unlink(n, a) // tombstoned: finish its deletion
			}
			t.drop(n)
			t.drop(a)
			if done {
				m.Release(cell) // reclaims an unpublished cell, its auxiliaries, and their edges
				return replace
			}
			backoff.Wait()
			continue
		}
		if cell == nil {
			if cell = t.newCell(key, value); cell == nil {
				t.drop(a)
				return false
			}
		}
		if t.casEdge(a, t.empty, cell) {
			t.drop(a)
			m.Release(cell) // the edge keeps the cell alive now
			return true
		}
		t.drop(a)
		t.stats.insertRetries.Add(1)
	}
}

// newCell builds an unpublished cell for the item, with its two
// auxiliary nodes pointing at the empty sentinel, or returns nil when a
// capacity-bounded manager has no cells left.
func (t *Tree[K, V]) newCell(key K, value V) *mm.Node[item[K, V]] {
	m := t.manager
	cell := m.Alloc()
	if cell == nil {
		return nil
	}
	left := m.Alloc()
	right := m.Alloc()
	if left == nil || right == nil {
		m.Release(cell)
		m.Release(left)
		m.Release(right)
		return nil
	}
	cell.SetKind(mm.KindCell)
	left.SetKind(mm.KindAux)
	right.SetKind(mm.KindAux)
	left.StoreNext(t.empty)
	m.AddRef(t.empty) // refs: edge left→empty
	right.StoreNext(t.empty)
	m.AddRef(t.empty) // refs: edge right→empty
	// The allocation references of left and right become the references
	// held by the cell's Item (released by the reclaim extractor).
	cell.Item = item[K, V]{Key: key, Left: left, Right: right}
	cell.Item.val.Set(value)
	return cell
}

// Delete removes the item with the given key, reporting whether this call
// removed it. It linearizes at the Compare&Swap that tombstones the key's
// live cell, then unlinks the cell. A cell another Delete tombstoned is
// an absent key: Delete helps unlink it and reports false.
func (t *Tree[K, V]) Delete(key K) bool {
	g, pinned := t.pin()
	defer t.unpin(g, pinned)
	n, a := t.locate(key)
	if n == nil {
		t.drop(a)
		return false
	}
	_, deleted := n.Item.val.Tombstone()
	t.unlink(n, a)
	t.drop(n)
	t.drop(a)
	return deleted
}

// unlink splices out the tombstoned cell n, reached through the parent
// edge a (the auxiliary node whose next was observed to be n). It claims
// the cell with a descriptor recording a and runs the deletion as its
// claimer; if another process holds the claim already, it helps that
// process instead. n and a stay held by the caller.
func (t *Tree[K, V]) unlink(n, a *mm.Node[item[K, V]]) {
	m := t.manager
	if n.BackLink() != nil {
		t.help(n) // claimed already
		return
	}
	if d := m.Alloc(); d != nil {
		d.SetKind(mm.KindAux)
		d.StoreNext(a)
		m.AddRef(a) // refs: descriptor→parent aux (a stored, counted link)
		t.maybeYield()
		if n.CASBackLink(nil, d) {
			// The allocation reference of d becomes the back_link's.
			t.run(n, a, true)
			return
		}
		m.Release(d) // reclaims d and its reference to a
	}
	t.help(n) // the cell is claimed by someone else: help them
}

// help completes (as far as safely possible) the deletion of the claimed
// cell n, reading the parent edge from its descriptor. n must be held by
// the caller; it is not released. help on an unclaimed cell is a no-op.
func (t *Tree[K, V]) help(n *mm.Node[item[K, V]]) {
	d := n.BackLink()
	if d == nil {
		return
	}
	// The descriptor and its parent-edge reference stay alive as long as
	// n is held (they are released only when n is reclaimed).
	p := d.Next()
	t.hold(p)
	t.run(n, p, false)
	t.drop(p)
	t.stats.helps.Add(1)
}

// run drives the deletion state machine for the claimed cell x with
// parent edge p until the cell is spliced out. All steps are idempotent
// Compare&Swaps, so any number of processes may run them concurrently —
// except the two-child subtree move, which only the claimer performs (see
// the package comment); a helper that cannot verify the move returns,
// leaving completion to the claimer.
func (t *Tree[K, V]) run(x, p *mm.Node[item[K, V]], claimer bool) {
	left, right := x.Item.Left, x.Item.Right
	for {
		if p.Next() != x {
			return // spliced: the deletion is complete
		}
		l := t.safeRead(left.NextAddr())
		r := t.safeRead(right.NextAddr())
		lState := t.classify(l, p)
		rState := t.classify(r, p)
		switch {
		case lState == sideChild && rState == sideChild:
			// Two children (Figure 14): move the left subtree under the
			// in-order successor, then splice the parent edge to the
			// right auxiliary node. A cell with two children has no
			// empty edge, so nothing an insertion could attach to is
			// lost by the splice; the left subtree remains reachable
			// through the (persistent) deleted cell until the move
			// publishes it under the successor.
			if t.ensureMoved(left, right, claimer) {
				t.casEdge(p, x, right)
			} else if !claimer {
				t.drop(l)
				t.drop(r)
				return // cannot verify the move; leave it to the claimer
			}
		case lState == sideChild: // right side empty or already circuited
			if rState == sideEmpty {
				// Short-circuit the empty side so no insertion can
				// attach there (§4.2).
				t.casEdge(right, t.empty, p)
			} else {
				t.casEdge(p, x, left)
			}
		case rState == sideChild: // left side empty or already circuited
			if lState == sideEmpty {
				t.casEdge(left, t.empty, p)
			} else {
				t.casEdge(p, x, right)
			}
		default: // leaf: circuit both sides, then splice to empty
			switch {
			case lState == sideEmpty:
				t.casEdge(left, t.empty, p)
			case rState == sideEmpty:
				t.casEdge(right, t.empty, p)
			default:
				t.casEdge(p, x, t.empty)
			}
		}
		t.drop(l)
		t.drop(r)
	}
}

type sideState uint8

const (
	sideEmpty     sideState = iota + 1 // the empty sentinel
	sideCircuited                      // short-circuited to the parent edge
	sideChild                          // a cell, or a chain left by completed deletions
)

// classify interprets one side edge of a cell being deleted whose parent
// edge is p. An edge equal to p (by identity) was short-circuited by this
// deletion; any other auxiliary node is a downward chain into a live
// subtree and counts as a child.
func (t *Tree[K, V]) classify(v, p *mm.Node[item[K, V]]) sideState {
	switch {
	case v == t.empty:
		return sideEmpty
	case v == p:
		return sideCircuited
	default:
		return sideChild
	}
}

// ensureMoved makes the left subtree of x reachable through x's in-order
// successor (Figure 14): it descends the leftmost path of the right
// subtree looking either for an empty left edge — where the claimer
// installs x's left auxiliary node — or for x's left auxiliary node
// already installed (by identity, anywhere along a chain). It reports
// whether the move is known to have happened.
func (t *Tree[K, V]) ensureMoved(needle, rightAux *mm.Node[item[K, V]], claimer bool) bool {
	t.stats.moveScans.Add(1)
	for {
		// Descend the leftmost path starting at x's right edge.
		a := rightAux
		t.hold(a)
		var prev *mm.Node[item[K, V]] // held cell we descended from
		for {
			term, la, hit := t.followEdgeNeedle(a, needle)
			t.drop(a)
			if hit {
				t.drop(term)
				t.drop(la)
				t.drop(prev)
				return true
			}
			if term == prev {
				// A deletion on the successor path; help it and rescan.
				t.drop(term)
				t.drop(la)
				t.help(prev)
				t.drop(prev)
				break
			}
			t.drop(prev)
			prev = nil
			if term == t.empty {
				// la is the successor's empty left edge (or x's own
				// right edge if the right subtree is empty — then the
				// "successor" is x's parent and the left subtree simply
				// replaces x, but that cannot happen here since both
				// sides were observed as children; a racing deletion may
				// still empty the subtree, in which case installing at
				// la keeps the left subtree reachable and ordered).
				t.drop(term)
				if !claimer {
					t.drop(la)
					return false
				}
				if t.casEdge(la, t.empty, needle) {
					t.drop(la)
					return true
				}
				t.drop(la)
				break // slot changed; rescan
			}
			// term is a cell: continue down its left edge.
			side := term.Item.Left
			t.hold(side)
			t.drop(la)
			prev = term
			a = side
		}
	}
}

// followEdgeNeedle is followEdge with an identity check: it reports
// whether the needle auxiliary node was encountered anywhere along the
// chain (including as the first hop).
func (t *Tree[K, V]) followEdgeNeedle(a, needle *mm.Node[item[K, V]]) (term, lastAux *mm.Node[item[K, V]], hit bool) {
	last := a
	t.hold(last)
	if last == needle {
		hit = true
	}
	cur := t.safeRead(last.NextAddr())
	for cur.IsAux() {
		if cur == needle {
			hit = true
		}
		t.drop(last)
		last = cur
		cur = t.safeRead(last.NextAddr())
	}
	return cur, last, hit
}

// Len reports the number of items by traversal (a snapshot).
func (t *Tree[K, V]) Len() int {
	n := 0
	t.Range(func(K, V) bool { n++; return true })
	return n
}

// Range calls f for each item in ascending key order until f returns
// false. It is a best-effort snapshot traversal performed iteratively with
// an explicit stack; items present for the whole traversal are observed.
func (t *Tree[K, V]) Range(f func(key K, value V) bool) {
	t.rangeFrom(nil, f)
}

// RangeFrom is Range starting at the first key ≥ start. Subtrees that
// cannot contain qualifying keys are pruned during the descent, so the
// cost is O(log n + items visited) on a balanced tree.
func (t *Tree[K, V]) RangeFrom(start K, f func(key K, value V) bool) {
	t.rangeFrom(&start, f)
}

func (t *Tree[K, V]) rangeFrom(start *K, f func(key K, value V) bool) {
	g, pinned := t.pin()
	defer t.unpin(g, pinned)
	// A concurrent two-children deletion (Figure 14) moves a whole
	// subtree under the in-order successor; a walk that saw the subtree
	// in its old place can meet it again in the new one. Filter the
	// output to strictly ascending keys so items are reported at most
	// once and in order.
	reportedAny := false
	var lastReported K
	emit := func(k K, v V) bool {
		if start != nil && k < *start {
			return true
		}
		if reportedAny && k <= lastReported {
			return true
		}
		reportedAny = true
		lastReported = k
		return f(k, v)
	}
	type frame struct {
		n       *mm.Node[item[K, V]] // held cell
		visited bool
	}
	// Seed with the root edge's terminal.
	push := func(stack []frame, a *mm.Node[item[K, V]], from *mm.Node[item[K, V]]) []frame {
		t.hold(a)
		term, la := t.followEdge(a)
		t.drop(a)
		t.drop(la)
		if term == t.empty || term == from {
			t.drop(term)
			return stack
		}
		return append(stack, frame{n: term})
	}
	stack := push(nil, t.root, nil)
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if !top.visited {
			if start != nil && top.n.Item.Key < *start {
				// Nothing in the left subtree (all smaller) or this cell
				// qualifies; only the right subtree can hold keys ≥ start.
				n := top.n
				stack = stack[:len(stack)-1]
				stack = push(stack, n.Item.Right, n)
				t.drop(n)
				continue
			}
			top.visited = true
			stack = push(stack, top.n.Item.Left, top.n)
			continue
		}
		n := top.n
		stack = stack[:len(stack)-1]
		if v, ok := n.Item.val.Load(); ok && !emit(n.Item.Key, v) {
			t.drop(n)
			for _, fr := range stack {
				t.drop(fr.n)
			}
			return
		}
		stack = push(stack, n.Item.Right, n)
		t.drop(n)
	}
}
