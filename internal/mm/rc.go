package mm

import (
	"fmt"
	"sync/atomic"

	"valois/internal/primitive"
)

const defaultBatchSize = 256

// RC is the paper's reference-counted memory manager (§5): cells are
// recycled through a lock-free free list (Figures 17 and 18) and protected
// from premature reuse by the refct/claim protocol of SafeRead and Release
// (Figures 15 and 16).
//
// Cells are never handed back to the runtime: once created they remain
// valid Node values forever (a type-stable arena). This is what makes the
// transient refct increment inside SafeRead safe — in the worst case it
// bumps the count of a cell that has already been recycled to a new owner,
// discovers that the pointer changed, and takes the increment back with
// Release. §5.1's central argument then applies: while any process holds a
// counted reference to a cell, the cell cannot return to the free list, so
// the free list head can never be swung back to it — Compare&Swap cannot
// suffer the ABA problem.
//
// The free list is Figures 17 and 18 as published: one head, popped and
// pushed by Compare&Swap. The only addition is the exponential backoff §2.1
// recommends after a failed Compare&Swap.
type RC[T any] struct {
	head     atomic.Pointer[Node[T]] // the Freelist root pointer of §5.2
	stats    stats
	capacity int64  // 0 = grow on demand; >0 = hard cell budget (Alloc may return nil)
	batch    int    // cells created per grow
	yield    func() // see SetYieldHook
	extract  func(item *T) (first, second *Node[T])

	// drop gives back a transient SafeRead reference (Figure 15's undo,
	// Figure 17 line 6). It is Release, except when the free list serves
	// the EBR manager: the transient may turn out to be the last reference
	// to a cell that was allocated, published and unlinked meanwhile, and
	// such a cell must retire through EBR's limbo, not be reclaimed under
	// the feet of pinned readers.
	drop func(*Node[T])
}

var _ Manager[int] = (*RC[int])(nil)

// RCOption configures an RC manager.
type RCOption interface {
	apply(*rcOptions)
}

type rcOptions struct {
	capacity int64
	batch    int
}

type capacityOption int64

func (c capacityOption) apply(o *rcOptions) { o.capacity = int64(c) }

// WithCapacity bounds the arena to n cells. When the budget is exhausted
// and the free list is empty, Alloc returns nil, matching Figure 17's NULL
// return. A capacity of zero (the default) lets the arena grow on demand.
func WithCapacity(n int64) RCOption { return capacityOption(n) }

type batchOption int

func (b batchOption) apply(o *rcOptions) { o.batch = int(b) }

// WithBatchSize sets how many cells are created at a time when the free
// list runs dry and the arena grows.
func WithBatchSize(n int) RCOption { return batchOption(n) }

// NewRC returns a reference-counted manager with an empty free list.
func NewRC[T any](opts ...RCOption) *RC[T] {
	options := rcOptions{batch: defaultBatchSize}
	for _, o := range opts {
		o.apply(&options)
	}
	if options.batch < 1 {
		options.batch = 1
	}
	m := &RC[T]{capacity: options.capacity, batch: options.batch}
	m.drop = m.Release
	return m
}

// SetReclaimExtractor registers a function that, given the item of a cell
// about to be reclaimed, returns up to two counted references the item
// holds to other cells (either may be nil). Structures that store node
// pointers inside their items — the skip list's tower Down pointer, the
// tree's two child auxiliary nodes — register an extractor so that
// reclaiming a cell releases those references too, exactly as Reclaim
// releases the cell's own next and back_link. It must be called before the
// manager is shared between goroutines.
func (m *RC[T]) SetReclaimExtractor(f func(item *T) (first, second *Node[T])) {
	m.extract = f
}

// SetYieldHook installs a function invoked immediately before every
// free-list Compare&Swap (the read-head-then-swing windows of Figures 17
// and 18). E11's churn arms use it to materialize contention on a host
// with few CPUs, exactly as core.List.EnableTorture does for the list's
// structural windows. It must be set before the manager is shared; nil
// (the default) disables it.
func (m *RC[T]) SetYieldHook(f func()) { m.yield = f }

func (m *RC[T]) maybeYield() {
	if m.yield != nil {
		m.yield()
	}
}

// Alloc implements Figure 17: it pops the front cell of the free list,
// using SafeRead and Release so that the pop's Compare&Swap cannot suffer
// the ABA problem, and grows the arena when the list is empty. It returns
// the cell with the claim bit cleared and one reference owned by the
// caller, or nil if a configured capacity is exhausted.
func (m *RC[T]) Alloc() *Node[T] {
	n := m.pop()
	if n == nil {
		n = m.grow()
	}
	if n == nil {
		return nil
	}
	m.stats.allocs.Add(1)
	return n
}

// pop removes the front cell of the free list (Figure 17 lines 1-8),
// returning nil if the list is empty.
func (m *RC[T]) pop() *Node[T] {
	var backoff primitive.Backoff
	for {
		q := m.SafeRead(&m.head) // Fig 17 line 1: the SafeRead reference becomes the caller's
		if q == nil {
			return nil
		}
		// Reading q.next here is safe: our reference keeps q off the
		// free list, so if the head still equals q at the Compare&Swap
		// below, no process popped q, and only a pop or a reclaim may
		// rewrite a free cell's next field.
		m.maybeYield()
		if primitive.CompareAndSwap(&m.head, q, q.next.Load()) { // Fig 17 line 4
			q.next.Store(nil) // free-list linkage is uncounted; drop it plainly
			var zero T
			q.Item = zero
			q.kind = 0
			q.claim.Store(0) // Fig 17 line 8
			m.stats.pops.Add(1)
			return q
		}
		m.drop(q)      // Fig 17 line 6
		backoff.Wait() // §2.1: back off instead of re-colliding immediately
	}
}

// SafeRead implements Figure 15: read the pointer, acquire a reference to
// the cell read, and re-check that the pointer still holds the same cell —
// retrying after undoing the acquisition if it does not.
func (m *RC[T]) SafeRead(p *atomic.Pointer[Node[T]]) *Node[T] {
	for {
		q := p.Load()
		if q == nil {
			return nil
		}
		q.refct.Add(1)
		if q == p.Load() {
			return q
		}
		m.drop(q)
	}
}

// AddRef acquires an extra reference to a cell the caller already holds.
func (m *RC[T]) AddRef(n *Node[T]) {
	if n == nil {
		return
	}
	n.refct.Add(1)
}

// Release implements Figure 16, extended per the Michael & Scott correction
// so that reclaiming a cell also releases the references held by the
// pointers still stored in it (its next and back_link fields). Deleted
// cells form chains through exactly those fields, so the cascade is
// unwound iteratively rather than recursively.
func (m *RC[T]) Release(n *Node[T]) {
	var pending []*Node[T]
	for {
		if n == nil {
			if len(pending) == 0 {
				return
			}
			n = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			continue
		}
		c := n.refct.Add(-1) // Fig 16 line 1
		switch {
		case c > 0: // Fig 16 line 2: other references remain
			n = nil
			continue
		case c < 0:
			// A counted reference was released twice; the structure is
			// already corrupt and continuing would recycle live cells.
			panic(fmt.Sprintf("mm: reference count of %s cell went negative (%d)", n.kind, c))
		}
		if primitive.TestAndSet(&n.claim) == 1 { // Fig 16 lines 4-6
			// Another process that concurrently saw the count reach
			// zero won the claim and will reclaim the cell.
			n = nil
			continue
		}
		// Reclaim (Figure 18), inlined so the contained-pointer releases
		// can share this loop's work list. Swap out the counted links
		// before the cell becomes reachable from the free list.
		next := n.next.Swap(nil)
		back := n.backLink.Swap(nil)
		var extraA, extraB *Node[T]
		if m.extract != nil {
			extraA, extraB = m.extract(&n.Item) // read before push: a concurrent Alloc may zero Item
		}
		m.stats.reclaims.Add(1)
		m.push(n)
		if back != nil {
			pending = append(pending, back)
		}
		if extraA != nil {
			pending = append(pending, extraA)
		}
		if extraB != nil {
			pending = append(pending, extraB)
		}
		n = next
	}
}

// Stats returns allocation and free-list counters.
func (m *RC[T]) Stats() Stats { return m.stats.snapshot() }

// FreeLen counts the cells currently on the free list.
//
// Contract: FreeLen is NOT atomic with respect to concurrent Alloc and
// Release — a concurrent pop can unlink the cell it is standing on and a
// concurrent push can splice ahead of it — so the walk is meaningful only
// at quiescence (no operations in flight), where it equals Created minus
// the cells currently checked out. Tests use it exactly there;
// TestRCFreeLenQuiescenceContract pins the contract down.
func (m *RC[T]) FreeLen() int {
	n := 0
	for q := m.head.Load(); q != nil; q = q.next.Load() {
		n++
	}
	return n
}

// push implements Figure 18: place a cell on the front of the free list.
// The linkage through next is uncounted (see the package comment).
func (m *RC[T]) push(n *Node[T]) {
	var backoff primitive.Backoff
	for {
		q := m.head.Load() // Fig 18 line 1
		n.next.Store(q)    // Fig 18 line 2
		m.maybeYield()
		if primitive.CompareAndSwap(&m.head, q, n) { // Fig 18 line 3
			m.stats.pushes.Add(1)
			return
		}
		backoff.Wait()
	}
}

// grow creates a batch of cells, pushes all but one onto the free list,
// and returns the remaining one with the caller's reference, or nil if the
// configured capacity is exhausted.
func (m *RC[T]) grow() *Node[T] {
	want := int64(m.batch)
	if m.capacity > 0 {
		var backoff primitive.Backoff
		for {
			created := m.stats.created.Load()
			remaining := m.capacity - created
			if remaining <= 0 {
				return nil
			}
			n := want
			if n > remaining {
				n = remaining
			}
			if m.stats.created.CompareAndSwap(created, created+n) {
				want = n
				break
			}
			backoff.Wait()
		}
	} else {
		m.stats.created.Add(want)
	}
	m.stats.grows.Add(1)
	cells := make([]Node[T], want)
	for i := 1; i < len(cells); i++ {
		c := &cells[i]
		c.claim.Store(1) // as a reclaimed cell would have (Fig 16 line 4)
		m.push(c)
	}
	// The first cell goes straight to the caller.
	first := &cells[0]
	first.refct.Store(1)
	return first
}
