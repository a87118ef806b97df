package mm

import (
	"fmt"
	"sync/atomic"

	"valois/internal/primitive"
)

// slotsPerBank is the number of epoch slots in one bank. A bank is
// appended when every slot of every existing bank is pinned, so Pin never
// blocks — nested pins (a skip-list descent holding one cursor while
// opening another) cannot deadlock on slot exhaustion.
const slotsPerBank = 32

// limboBuckets is the number of per-epoch limbo lists. Four, not three:
// while the advancement from e to e+1 drains the bucket of cells retired
// at e-2, concurrent retires tag cells with e or e+1 — with three buckets
// the drain target and an active retire bucket would collide.
const limboBuckets = 4

// eslot is one goroutine-visible epoch slot: zero when free, otherwise
// the epoch its pinned owner has observed. The pad keeps concurrently
// pinning goroutines off each other's cache lines.
type eslot struct {
	state atomic.Int64
	_     [56]byte
}

// slotBank is a fixed block of epoch slots; banks form an append-only
// lock-free list so the slot set can grow without moving existing slots
// (a Guard holds a raw slot pointer).
type slotBank struct {
	slots [slotsPerBank]eslot
	next  atomic.Pointer[slotBank]
}

// Guard is an active epoch pin returned by Pin and surrendered to Unpin.
// While a goroutine holds a Guard, no cell it can reach through the
// structure is reclaimed — that is the EBR replacement for the per-hop
// SafeRead reference of §5.1.
type Guard struct {
	slot *eslot
}

// Pinner is the epoch side of the EBR manager, factored as a non-generic
// interface so structure code can detect it on any Manager[T] with a
// plain type assertion. Pin must be called before traversing shared cells
// with plain loads and Unpin after the last such access.
type Pinner interface {
	Pin() Guard
	Unpin(Guard)
}

// Quiescer is the deferred-reclamation side of the EBR manager, factored
// as a non-generic interface for the same reason as Pinner: tests and
// tools holding a Manager[T] whose T is another package's unexported item
// type can still drive epoch advancement and drain limbo through a plain
// interface assertion.
type Quiescer interface {
	// Quiesce advances epochs until limbo is empty, reporting success.
	// Call only at quiescent moments (no pins held, no operations in
	// flight).
	Quiesce() bool
	// ForceAdvance attempts one epoch advancement; it never bypasses an
	// active pin.
	ForceAdvance()
	// LimboLen is the number of retired cells awaiting a grace period.
	LimboLen() int64
	// Epoch is the current global epoch.
	Epoch() int64
}

// EBR is the epoch-based reclamation manager (mode=ebr): the alternative
// Trevor Brown's DEBRA line of work proposes to the paper's per-hop
// SafeRead/Release counting. Traversal references become one Pin/Unpin
// pair per structure operation; only the references materialized as
// stored pointers (links) and allocation references stay counted.
//
// The invariant that makes the counted/uncounted split sound is the
// paper's own (§5.1, as formalized by Michael & Scott): every pointer
// stored in a cell field is counted. A cell whose count reaches zero
// therefore has no stored pointers anywhere — no traversal that pins
// *after* that moment can reach it. Traversals pinned *before* that
// moment may still hold raw pointers to it, so the cell is not recycled
// but retired into the limbo bucket of the current global epoch; it is
// handed to the free list only after every goroutine pinned at retire
// time has unpinned (two grace periods, see tryAdvance).
//
// One hazard the deferral handles explicitly: a pinned goroutine holding
// a stale pointer may store a *new* counted link to an already-retired
// cell (TryDelete's back_link store is the real case). Stores bump the
// count before publishing the pointer, so the drain re-checks the count
// and requeues any resurrected cell instead of freeing it. A resurrected
// cell's grace period must also start over when that link is dropped
// again — goroutines that pinned after the cell first retired can have
// read it — so the claim word has three states under EBR (claimLive,
// claimLimbo, claimTouched): a Release of a cell that sits in limbo marks
// it touched before lowering the count, and the drain requeues a touched
// cell, as it does a referenced one, into the current epoch's bucket.
// The claim word leaves claimLive exactly once per life of the cell, at
// its first count-zero Release, so a cell is never on two limbo lists.
//
// Allocation reuses the RC manager's free list verbatim — pops are
// protected by the §5.1 transient-SafeRead argument, so Alloc needs no pin
// and the ABA argument is unchanged.
type EBR[T any] struct {
	fl *RC[T] // Figure 17/18 free list + alloc/reclaim counters

	epoch atomic.Int64 // global epoch; starts at 1 so slot 0 means "free"
	banks slotBank     // first slot bank, inline; more are appended

	limbo      [limboBuckets]atomic.Pointer[Node[T]] // per-epoch retired-cell stacks
	limboCount atomic.Int64
	retireTick atomic.Uint32 // paces tryAdvance from the retire path
	advances   atomic.Int64  // successful epoch advancements
}

var _ Manager[int] = (*EBR[int])(nil)
var _ Pinner = (*EBR[int])(nil)
var _ Quiescer = (*EBR[int])(nil)

// NewEBR returns an epoch-based manager with an empty free list.
func NewEBR[T any]() *EBR[T] {
	m := &EBR[T]{fl: NewRC[T]()}
	m.fl.drop = m.Release // an allocator's transient reference retires through limbo too
	m.epoch.Store(1)
	return m
}

// States of a cell's claim word under EBR (RC uses only the first two, as
// Figure 16's claim bit).
const (
	claimLive    = 0 // allocated and not retired
	claimLimbo   = 1 // free, or retired and waiting on a limbo list
	claimTouched = 2 // on a limbo list and released since it was queued there
)

// SetReclaimExtractor mirrors RC.SetReclaimExtractor: the extractor's
// references are released when a retired cell's grace period expires and
// it is actually freed.
func (m *EBR[T]) SetReclaimExtractor(f func(item *T) (first, second *Node[T])) {
	m.fl.SetReclaimExtractor(f)
}

// SetYieldHook installs a hook run before the free-list Compare&Swaps and
// before the epoch-advancement Compare&Swap, for the deterministic
// schedule explorer and the single-CPU torture methodology.
func (m *EBR[T]) SetYieldHook(f func()) { m.fl.SetYieldHook(f) }

// Alloc pops a cell from the free list (Figure 17), growing the arena
// when the list is empty. The pop's transient SafeRead bump is the same
// ABA protection RC uses; no pin is required.
func (m *EBR[T]) Alloc() *Node[T] { return m.fl.Alloc() }

// SafeRead is a plain atomic load: the caller's pin — not a per-cell
// count — keeps the cell from being recycled. It must only be called
// between Pin and Unpin (or on cells the caller holds counted references
// to); the lfcheck analyzers police the guard shape.
func (m *EBR[T]) SafeRead(p *atomic.Pointer[Node[T]]) *Node[T] { return p.Load() }

// AddRef acquires a counted reference: under EBR these account only for
// stored pointers (structure links) and allocation references, never for
// traversal positions.
func (m *EBR[T]) AddRef(n *Node[T]) {
	if n == nil {
		return
	}
	n.refct.Add(1)
}

// Release drops a counted reference. When the last stored pointer to a
// cell is dropped the cell has become unreachable from the structure
// roots, and the claim winner retires it into the current epoch's limbo
// bucket; it reaches the free list only after two grace periods. Unlike
// RC.Release the cell's own next/back_link references are NOT dropped
// here — pinned traversals may still be walking through the deleted cell,
// so the links stay readable until the drain actually frees it.
//
// Dropping a reference to a cell that is already in limbo (a resurrected
// cell losing its new link) restarts its grace period: whoever read that
// link may still be using the cell. The mark is made before the count
// falls, so a drain that sees the count at zero because of this Release
// also sees the mark.
func (m *EBR[T]) Release(n *Node[T]) {
	if n == nil {
		return
	}
	if n.claim.Load() != claimLive {
		// Compare&Swap, not a store: an allocator may be taking the cell
		// off the free list this instant and resetting the word.
		n.claim.CompareAndSwap(claimLimbo, claimTouched)
	}
	c := n.refct.Add(-1)
	switch {
	case c > 0:
		return
	case c < 0:
		panic(fmt.Sprintf("mm: reference count of %s cell went negative (%d)", n.kind, c))
	}
	if !n.claim.CompareAndSwap(claimLive, claimLimbo) {
		// Already retired once (a resurrected cell dropping back to zero,
		// or a concurrent count-zero observer won): the limbo drain owns it.
		return
	}
	m.retire(n)
}

// retire pushes n onto the limbo bucket of the current epoch and
// occasionally tries to advance the epoch so limbo does not grow without
// bound under churn.
func (m *EBR[T]) retire(n *Node[T]) {
	m.pushLimbo(n)
	if m.retireTick.Add(1)%8 == 0 {
		m.tryAdvance()
	}
}

// pushLimbo adds n to the limbo bucket of the current epoch (a Treiber
// stack through the dedicated limbo field; next/back_link stay intact).
func (m *EBR[T]) pushLimbo(n *Node[T]) {
	var backoff primitive.Backoff
	b := &m.limbo[int(m.epoch.Load()%limboBuckets)]
	for {
		head := b.Load()
		n.limbo.Store(head)
		if b.CompareAndSwap(head, n) {
			m.limboCount.Add(1)
			return
		}
		backoff.Wait() // §2.1: back off instead of re-colliding immediately
	}
}

// Pin enters an epoch-protected region: it claims a free slot, publishes
// the current global epoch into it, and re-checks the global so that an
// advancer scanning after our publication is guaranteed to see it. The
// seq-cst total order of Go's atomics makes the re-check sufficient: if
// our load of the global returns e after our slot store, the store
// precedes any successful CAS e→e+1, so every later advancement scan
// observes our slot.
func (m *EBR[T]) Pin() Guard {
	s := m.claimSlot()
	for {
		e := m.epoch.Load()
		s.state.Store(e)
		if m.epoch.Load() == e {
			return Guard{slot: s}
		}
	}
}

// Unpin leaves the epoch-protected region and, if cells are waiting in
// limbo, tries to advance the epoch — an unpin is exactly the event that
// can unblock advancement.
func (m *EBR[T]) Unpin(g Guard) {
	if g.slot == nil {
		return
	}
	m.leave(g)
	if m.limboCount.Load() > 0 {
		m.tryAdvance()
	}
}

// leave frees the guard's slot; it is Unpin without the advancement
// attempt, for the advancer's own pin.
func (m *EBR[T]) leave(g Guard) { g.slot.state.Store(0) }

// claimSlot finds a free epoch slot, appending a new bank when every
// existing slot is pinned. The claiming CAS installs the current epoch as
// a nonzero placeholder; Pin's publish loop immediately overwrites it
// with an up-to-date observation.
func (m *EBR[T]) claimSlot() *eslot {
	for bank := &m.banks; ; {
		for i := range bank.slots {
			s := &bank.slots[i]
			if s.state.Load() == 0 && s.state.CompareAndSwap(0, m.epoch.Load()) {
				return s
			}
		}
		next := bank.next.Load()
		if next == nil {
			fresh := &slotBank{}
			fresh.slots[0].state.Store(m.epoch.Load()) // pre-claim before publishing
			if bank.next.CompareAndSwap(nil, fresh) {
				return &fresh.slots[0]
			}
			next = bank.next.Load()
		}
		bank = next
	}
}

// allObserved reports whether every pinned slot has observed epoch e. A
// slot mid-Pin may show a stale epoch and block advancement for a moment;
// that errs toward keeping cells alive, never toward freeing early.
func (m *EBR[T]) allObserved(e int64) bool {
	for bank := &m.banks; bank != nil; bank = bank.next.Load() {
		for i := range bank.slots {
			if s := bank.slots[i].state.Load(); s != 0 && s != e {
				return false
			}
		}
	}
	return true
}

// tryAdvance advances the global epoch from e to e+1 when every pinned
// goroutine has observed e, and the advancement winner drains the bucket
// of cells retired at e-2: any goroutine that could still reach one of
// those cells was pinned with a slot ≤ e-2, and the advancement to e
// already required that slot to be gone.
//
// The winner holds a pin of its own, taken at e, until the drain is done.
// Bucket (e+2) mod 4 is also where retires tagged e+2 will land, so it
// must be detached before the epoch can reach e+2 — which the pin at e
// prevents — or a slow winner would free cells retired an instant ago.
// The same pin covers the drain's cascade: freeing a cell releases the
// links it held, which retires further cells, and like every retire those
// must not straddle two advancements.
func (m *EBR[T]) tryAdvance() {
	e := m.epoch.Load()
	if !m.allObserved(e) {
		return
	}
	g := m.Pin()
	m.fl.maybeYield()
	if m.epoch.CompareAndSwap(e, e+1) {
		m.advances.Add(1)
		m.drain(int((e + 2) % limboBuckets)) // the bucket cells retired at e-2 landed in
	}
	m.leave(g) // not Unpin, which would come back here
}

// drain detaches one limbo bucket and disposes of every cell on it: cells
// whose count is still zero are freed into the free list — now
// releasing the counted references their next/back_link/item fields hold,
// exactly as RC's Reclaim cascade does — and cells that were resurrected
// (count bumped by a pinned goroutine that stored a new link before the
// grace period expired) or touched (such a link dropped again since the
// cell was queued) are requeued into the current bucket to be examined
// again a full round later. The count is read before the mark; see
// Release.
func (m *EBR[T]) drain(bucket int) {
	n := m.limbo[bucket].Swap(nil)
	for n != nil {
		next := n.limbo.Swap(nil)
		if n.refct.Load() != 0 || n.claim.Load() == claimTouched {
			n.claim.Store(claimLimbo)
			m.limboCount.Add(-1)
			m.pushLimbo(n) // still referenced, or its grace period restarted
		} else {
			m.free(n)
		}
		n = next
	}
}

// free hands one grace-period-expired cell to the free list and releases
// the counted references it still holds (the deferred half of RC's
// Reclaim, Figure 18 plus the Michael & Scott correction). The recursive
// releases may retire further cells into the current epoch's bucket.
func (m *EBR[T]) free(n *Node[T]) {
	next := n.next.Swap(nil)
	back := n.backLink.Swap(nil)
	var extraA, extraB *Node[T]
	if m.fl.extract != nil {
		extraA, extraB = m.fl.extract(&n.Item) // read before push: a concurrent Alloc may zero Item
	}
	m.fl.stats.reclaims.Add(1)
	m.limboCount.Add(-1)
	m.fl.push(n)
	m.Release(next)
	m.Release(back)
	m.Release(extraA)
	m.Release(extraB)
}

// Epoch returns the current global epoch (for tests and STATS).
func (m *EBR[T]) Epoch() int64 { return m.epoch.Load() }

// LimboLen returns the number of retired cells awaiting their grace
// period. Exact only at quiescence, like RC.FreeLen.
func (m *EBR[T]) LimboLen() int64 { return m.limboCount.Load() }

// ForceAdvance attempts one epoch advancement (draining the eligible
// bucket if it wins). It never bypasses an active pin — "force" means
// "don't wait for the retire-path pacing", not "skip the grace period".
func (m *EBR[T]) ForceAdvance() { m.tryAdvance() }

// Quiesce repeatedly advances the epoch and drains limbo until it is
// empty, reporting success. It is meant for quiescent moments (tests,
// shutdown): with no pins active each round advances one epoch, and
// freeing a cell can retire the cells it linked to (a closed list
// cascades one link per round), so the loop runs as long as it makes
// progress — reclaims growing or limbo shrinking — plus a full bucket
// rotation of slack, and gives up only when neither moves (an active pin
// or a counted reference still held somewhere).
func (m *EBR[T]) Quiesce() bool {
	stale := 0
	prevLimbo := m.limboCount.Load()
	prevReclaims := m.fl.stats.reclaims.Load()
	for stale <= 2*limboBuckets {
		if m.limboCount.Load() == 0 {
			return true
		}
		m.tryAdvance()
		limbo, reclaims := m.limboCount.Load(), m.fl.stats.reclaims.Load()
		if limbo < prevLimbo || reclaims > prevReclaims {
			stale = 0
		} else {
			stale++
		}
		prevLimbo, prevReclaims = limbo, reclaims
	}
	return m.limboCount.Load() == 0
}

// Stats returns the allocation and free-list counters, plus the EBR
// Epoch/Limbo gauges.
func (m *EBR[T]) Stats() Stats {
	s := m.fl.Stats()
	s.Epoch = m.epoch.Load()
	s.Limbo = m.limboCount.Load()
	return s
}

// FreeLen counts free-list cells (quiescence only).
func (m *EBR[T]) FreeLen() int { return m.fl.FreeLen() }
