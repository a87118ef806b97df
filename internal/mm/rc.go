package mm

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"

	"valois/internal/primitive"
)

const defaultBatchSize = 256

// cellSpacing is the minimum distance, in bytes, between the starts of two
// cells handed out by a padded arena (see WithCellPadding). 64 bytes is
// the cache-line size of every platform this repo targets; keeping
// neighboring cells' refct/claim words on distinct lines stops the §5.1
// counter traffic of one goroutine from invalidating another's line.
const cellSpacing = 64

// maxCellStride bounds how many cells of padding grow inserts between
// consecutive live cells, so a tiny payload type cannot inflate the arena
// without bound (stride 8 already separates 8-byte-payload cells by well
// over a line).
const maxCellStride = 8

// stripe is one head of the striped free list. Each stripe is a complete
// §5.2 free list of its own: a Treiber stack popped with the
// SafeRead-protected Compare&Swap of Figure 17 and pushed with Figure 18,
// so the ABA-freedom argument of §5.1 applies per stripe exactly as it did
// to the single head. The trailing pad keeps each stripe — head pointer,
// claim flag, and counters — on cache lines no other stripe touches.
type stripe[T any] struct {
	head atomic.Pointer[Node[T]] // the Freelist root pointer of §5.2

	// busy steers concurrent operations to distinct stripes: a goroutine
	// claims a stripe with Compare&Swap before operating and clears the
	// flag afterwards. The flag is an affinity hint, NOT a lock — when
	// every stripe is busy the operation proceeds on an unclaimed stripe,
	// whose push/pop Compare&Swap loops are safe under sharing, so no
	// caller ever waits on the flag and lock-freedom is preserved.
	busy atomic.Int32

	pops   atomic.Int64 // successful Fig 17 pops from this stripe
	pushes atomic.Int64 // Fig 18 pushes onto this stripe
	grows  atomic.Int64 // arena grows that landed their batch here
	steals atomic.Int64 // pops taken from this stripe by an allocator whose home stripe was empty

	_ [64]byte // pad past a cache line so adjacent stripes never false-share
}

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
// Deviations from the single free list of Figure 17/18, all selectable off
// (see FaithfulOptions and DESIGN.md's "deviations for performance"):
//
//   - The free list is striped: WithStripes(n) creates n independent,
//     cache-line-padded heads, and each operation claims a stripe no
//     concurrent operation is using before pushing or popping, so the hot
//     Compare&Swap loops stop colliding. Alloc steals from sibling stripes
//     before growing the arena, so cells are conserved exactly as with one
//     head. Valois himself suggests distributing the free list (§5.2).
//   - Cells are padded: WithCellPadding spaces the cells grow creates at
//     least a cache line apart, so the refct/claim fields of cells handed
//     to different goroutines never share a line.
//   - The push/pop retry loops back off exponentially when their
//     Compare&Swap fails (§2.1 recommends exactly this under contention);
//     WithBackoff(false) restores the paper's bare loops.
type RC[T any] struct {
	stripes   []stripe[T]
	hint      atomic.Uint32 // stripe where claiming starts; moves on collision
	stats     stats
	capacity  int64 // 0 = grow on demand; >0 = hard cell budget (Alloc may return nil)
	batch     int   // cells created per grow
	stride    int   // distance between live cells in a grow batch, in cells (1 = packed)
	noBackoff bool
	yield     func() // see SetYieldHook
	extract   func(item *T) (first, second *Node[T])

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
	stripes  int
	padded   bool
	backoff  bool
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

type stripesOption int

func (s stripesOption) apply(o *rcOptions) { o.stripes = int(s) }

// WithStripes splits the free list across n independent padded heads.
// The default is GOMAXPROCS at construction time; 1 restores the paper's
// single Figure 17/18 free list.
func WithStripes(n int) RCOption { return stripesOption(n) }

type paddingOption bool

func (p paddingOption) apply(o *rcOptions) { o.padded = bool(p) }

// WithCellPadding controls whether grow spaces cells a cache line apart
// (the default) or packs them contiguously as the seed implementation did.
// Packing trades false sharing between neighboring cells' refct fields for
// a denser arena.
func WithCellPadding(on bool) RCOption { return paddingOption(on) }

type backoffOption bool

func (b backoffOption) apply(o *rcOptions) { o.backoff = bool(b) }

// WithBackoff controls whether the free-list push/pop retry loops back off
// exponentially after a failed Compare&Swap (the default) or retry
// immediately as the paper's pseudocode does.
func WithBackoff(on bool) RCOption { return backoffOption(on) }

// FaithfulOptions returns the options that disable every performance
// deviation, yielding the paper's single packed free list with bare retry
// loops: WithStripes(1), WithCellPadding(false), WithBackoff(false).
func FaithfulOptions() []RCOption {
	return []RCOption{WithStripes(1), WithCellPadding(false), WithBackoff(false)}
}

// NewRC returns a reference-counted manager with an empty free list.
func NewRC[T any](opts ...RCOption) *RC[T] {
	options := rcOptions{
		batch:   defaultBatchSize,
		stripes: runtime.GOMAXPROCS(0),
		padded:  true,
		backoff: true,
	}
	for _, o := range opts {
		o.apply(&options)
	}
	if options.batch < 1 {
		options.batch = 1
	}
	if options.stripes < 1 {
		options.stripes = 1
	}
	stride := 1
	if options.padded {
		// The stride is computed once, from the concrete cell size; grow
		// then hands out every stride-th cell of a batch so consecutive
		// live cells start at least cellSpacing apart.
		size := int(reflect.TypeOf(Node[T]{}).Size())
		if size < 1 {
			size = 1
		}
		stride = (cellSpacing + size - 1) / size
		if stride < 1 {
			stride = 1
		}
		if stride > maxCellStride {
			stride = maxCellStride
		}
	}
	m := &RC[T]{
		stripes:   make([]stripe[T], options.stripes),
		capacity:  options.capacity,
		batch:     options.batch,
		stride:    stride,
		noBackoff: !options.backoff,
	}
	m.drop = m.Release
	return m
}

// NumStripes reports how many free-list stripes the manager was built with.
func (m *RC[T]) NumStripes() int { return len(m.stripes) }

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
// and 18). Experiment E10 uses it to materialize contention on the
// single-CPU reproduction host, exactly as core.List.EnableTorture does
// for the list's structural windows. It must be set before the manager is
// shared; nil (the default) disables it.
func (m *RC[T]) SetYieldHook(f func()) { m.yield = f }

func (m *RC[T]) maybeYield() {
	if m.yield != nil {
		m.yield()
	}
}

// claim returns the stripe this operation should work on. It prefers a
// stripe no concurrent operation has claimed, probing from the hint and
// remembering where it landed so a stable set of goroutines settles on
// disjoint stripes. If every stripe is claimed it returns the hint stripe
// unclaimed — the per-stripe Compare&Swap loops remain correct under
// sharing, so claiming never waits (see stripe.busy).
//
// Allocators pass stocked=true: the first probe pass then skips stripes
// whose free list is empty, so concurrent Allocs claim distinct stripes
// that each have cells. Without that preference the free cells pool on a
// few stripes and every allocator whose claimed home happens to be empty
// falls through to stealing from the same stocked stripe — recreating on
// its head exactly the shared-Compare&Swap hot spot striping removes.
func (m *RC[T]) claim(stocked bool) (idx int, claimed bool) {
	n := uint32(len(m.stripes))
	if n == 1 {
		return 0, false
	}
	start := m.hint.Load()
	for pass := 0; pass < 2; pass++ {
		for i := uint32(0); i < n; i++ {
			at := (start + i) % n
			s := &m.stripes[at]
			if pass == 0 && stocked && s.head.Load() == nil {
				continue
			}
			if s.busy.Load() == 0 && s.busy.CompareAndSwap(0, 1) {
				if i != 0 {
					m.hint.Store(at)
				}
				return int(at), true
			}
		}
		if !stocked {
			break // one pass: the stocked filter was never applied
		}
	}
	return int(start % n), false
}

func (m *RC[T]) unclaim(idx int, claimed bool) {
	if claimed {
		m.stripes[idx].busy.Store(0)
	}
}

// Alloc implements Figure 17 over the striped free list. It pops a cell
// from the claimed home stripe, using SafeRead and Release so that the
// pop's Compare&Swap cannot suffer the ABA problem; if the home stripe is
// empty it steals from the sibling stripes, and only when every stripe is
// empty does the arena grow. It returns the cell with the claim bit
// cleared and one reference owned by the caller, or nil if a configured
// capacity is exhausted.
func (m *RC[T]) Alloc() *Node[T] {
	home, claimed := m.claim(true)
	n := m.pop(&m.stripes[home])
	if n == nil {
		// Home stripe empty: steal from every sibling before growing, so
		// cells freed to any stripe are found before the arena expands.
		for i := 1; i < len(m.stripes) && n == nil; i++ {
			sib := &m.stripes[(home+i)%len(m.stripes)]
			if n = m.pop(sib); n != nil {
				sib.steals.Add(1)
			}
		}
	}
	if n == nil {
		n = m.grow(&m.stripes[home])
	}
	m.unclaim(home, claimed)
	if n == nil {
		return nil
	}
	m.stats.allocs.Add(1)
	return n
}

// pop removes the front cell of one stripe (Figure 17 lines 1-8),
// returning nil if the stripe is empty.
func (m *RC[T]) pop(s *stripe[T]) *Node[T] {
	backoff := primitive.Backoff{Disabled: m.noBackoff}
	for {
		q := m.SafeRead(&s.head) // Fig 17 line 1: the SafeRead reference becomes the caller's
		if q == nil {
			return nil
		}
		// Reading q.next here is safe: our reference keeps q off the
		// free list, so if the head still equals q at the Compare&Swap
		// below, no process popped q, and only a pop or a reclaim may
		// rewrite a free cell's next field.
		m.maybeYield()
		if primitive.CompareAndSwap(&s.head, q, q.next.Load()) { // Fig 17 line 4
			q.next.Store(nil) // free-list linkage is uncounted; drop it plainly
			var zero T
			q.Item = zero
			q.kind = 0
			q.claim.Store(0) // Fig 17 line 8
			s.pops.Add(1)
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
// unwound iteratively rather than recursively. Every cell the cascade
// reclaims is pushed to the same claimed stripe.
func (m *RC[T]) Release(n *Node[T]) {
	var pending []*Node[T]
	home := -1 // stripe claimed lazily: most Releases reclaim nothing
	claimed := false
	for {
		if n == nil {
			if len(pending) == 0 {
				if home >= 0 {
					m.unclaim(home, claimed)
				}
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
		if home < 0 {
			home, claimed = m.claim(false)
		}
		m.push(&m.stripes[home], n)
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

// Stats returns allocation counters, including the free-list behavior
// counters summed over the stripes.
func (m *RC[T]) Stats() Stats {
	s := m.stats.snapshot()
	s.Stripes = len(m.stripes)
	for i := range m.stripes {
		st := &m.stripes[i]
		s.Pops += st.pops.Load()
		s.Pushes += st.pushes.Load()
		s.Grows += st.grows.Load()
		s.Steals += st.steals.Load()
	}
	return s
}

// StripeStats is the free-list activity of one stripe (see RC.StripeStats).
type StripeStats struct {
	// Pops counts successful Figure 17 pops from this stripe, including
	// pops performed as steals.
	Pops int64
	// Pushes counts Figure 18 pushes onto this stripe (reclaims plus the
	// surplus cells of grows that landed here).
	Pushes int64
	// Grows counts arena grows whose batch was pushed to this stripe.
	Grows int64
	// Steals counts pops taken from this stripe by allocators whose home
	// stripe was empty.
	Steals int64
}

// StripeStats returns the per-stripe free-list counters, indexed by
// stripe. Like Stats it is a point-in-time snapshot, exact only at
// quiescence.
func (m *RC[T]) StripeStats() []StripeStats {
	out := make([]StripeStats, len(m.stripes))
	for i := range m.stripes {
		st := &m.stripes[i]
		out[i] = StripeStats{
			Pops:   st.pops.Load(),
			Pushes: st.pushes.Load(),
			Grows:  st.grows.Load(),
			Steals: st.steals.Load(),
		}
	}
	return out
}

// FreeLen counts the cells currently on the free list, summed across all
// stripes.
//
// Contract: FreeLen is NOT atomic with respect to concurrent Alloc and
// Release — a concurrent pop can unlink the cell it is standing on and a
// concurrent push can splice ahead of it — so the walk is meaningful only
// at quiescence (no operations in flight), where it equals Created minus
// the cells currently checked out. Tests use it exactly there;
// TestRCFreeLenQuiescenceContract pins the contract down.
func (m *RC[T]) FreeLen() int {
	n := 0
	for i := range m.stripes {
		for q := m.stripes[i].head.Load(); q != nil; q = q.next.Load() {
			n++
		}
	}
	return n
}

// push implements Figure 18: place a cell on the front of one stripe.
// The linkage through next is uncounted (see the package comment).
func (m *RC[T]) push(s *stripe[T], n *Node[T]) {
	backoff := primitive.Backoff{Disabled: m.noBackoff}
	for {
		q := s.head.Load() // Fig 18 line 1
		n.next.Store(q)    // Fig 18 line 2
		m.maybeYield()
		if primitive.CompareAndSwap(&s.head, q, n) { // Fig 18 line 3
			s.pushes.Add(1)
			return
		}
		backoff.Wait()
	}
}

// grow creates a batch of cells, pushes all but one onto the given stripe,
// and returns the remaining one with the caller's reference, or nil if the
// configured capacity is exhausted. With cell padding enabled the batch is
// laid out strided, so consecutive live cells start on distinct cache
// lines; the skipped filler cells are never handed out and exist only as
// spacing (they are not counted against the capacity, which budgets usable
// cells).
func (m *RC[T]) grow(s *stripe[T]) *Node[T] {
	want := int64(m.batch)
	if m.capacity > 0 {
		backoff := primitive.Backoff{Disabled: m.noBackoff}
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
	s.grows.Add(1)
	cells := make([]Node[T], int(want)*m.stride)
	for i := int64(1); i < want; i++ {
		c := &cells[int(i)*m.stride]
		c.claim.Store(1) // as a reclaimed cell would have (Fig 16 line 4)
		m.push(s, c)
	}
	// The first cell goes straight to the caller.
	first := &cells[0]
	first.refct.Store(1)
	return first
}
