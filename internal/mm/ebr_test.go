package mm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"valois/internal/testenv"
)

func TestEBRAllocGivesCallerReference(t *testing.T) {
	m := NewEBR[int]()
	n := m.Alloc()
	if n == nil {
		t.Fatal("Alloc returned nil without a capacity limit")
	}
	if got := n.RefCount(); got != 1 {
		t.Fatalf("fresh cell refcount = %d, want 1", got)
	}
	if got := n.claim.Load(); got != 0 {
		t.Fatalf("fresh cell claim = %d, want 0", got)
	}
}

func TestEBRSafeReadIsPlainLoad(t *testing.T) {
	m := NewEBR[int]()
	n := m.Alloc()
	var p = &n.next
	n2 := m.Alloc()
	p.Store(n2)
	g := m.Pin()
	if got := m.SafeRead(p); got != n2 {
		t.Fatalf("SafeRead = %p, want %p", got, n2)
	}
	// The load must not have touched the count: the pin is the protection.
	if got := n2.RefCount(); got != 1 {
		t.Fatalf("refcount after SafeRead = %d, want 1 (plain load)", got)
	}
	m.Unpin(g)
}

// TestEBRPinBlocksReclamation is the manager-level statement of the core
// EBR guarantee: a goroutine pinned at epoch e keeps every cell retired at
// epoch e out of the free list, no matter how often advancement is tried,
// because the second advancement past e cannot happen until the pin ends.
func TestEBRPinBlocksReclamation(t *testing.T) {
	m := NewEBR[int]()
	g := m.Pin()

	n := m.Alloc()
	m.Release(n) // count hits zero: retired into the current epoch's bucket

	for i := 0; i < 32; i++ {
		m.ForceAdvance()
	}
	if got := m.Stats().Reclaims; got != 0 {
		t.Fatalf("reclaims with a pin active = %d, want 0", got)
	}
	if got := m.LimboLen(); got != 1 {
		t.Fatalf("limbo length with a pin active = %d, want 1", got)
	}
	// The epoch may advance at most once past the pin's observation.
	if e := m.Epoch(); e > 2 {
		t.Fatalf("epoch advanced to %d past an active pin at epoch 1", e)
	}

	m.Unpin(g)
	if !m.Quiesce() {
		t.Fatalf("Quiesce failed after unpin; limbo = %d", m.LimboLen())
	}
	s := m.Stats()
	if s.Reclaims != 1 || s.Live() != 0 {
		t.Fatalf("after quiesce: reclaims = %d live = %d, want 1 and 0", s.Reclaims, s.Live())
	}
}

// TestEBRUnpinUnblocksAdvancement pins two goroutinesworth of slots and
// shows the epoch stays put until the last one unpins.
func TestEBRUnpinUnblocksAdvancement(t *testing.T) {
	m := NewEBR[int]()
	g1 := m.Pin()
	g2 := m.Pin()
	start := m.Epoch()

	m.Release(m.Alloc()) // something in limbo so Unpin bothers advancing

	m.Unpin(g1)
	for i := 0; i < 8; i++ {
		m.ForceAdvance()
	}
	if e := m.Epoch(); e > start+1 {
		t.Fatalf("epoch advanced to %d with a pin still at %d", e, start)
	}
	m.Unpin(g2)
	if !m.Quiesce() {
		t.Fatalf("Quiesce failed; limbo = %d", m.LimboLen())
	}
	if got := m.Stats().Live(); got != 0 {
		t.Fatalf("live after quiesce = %d, want 0", got)
	}
}

// TestEBRResurrectionDeferral exercises the drain's count re-check: a
// pinned goroutine holding a stale pointer stores a new counted link to an
// already-retired cell (the TryDelete back_link shape). The drain must
// requeue the cell instead of freeing it, and the eventual last Release
// must not retire it a second time.
func TestEBRResurrectionDeferral(t *testing.T) {
	m := NewEBR[int]()
	g := m.Pin()
	n := m.Alloc()
	m.Release(n) // retired; we still hold the raw pointer under the pin

	m.AddRef(n) // the resurrecting link store bumps the count first
	m.Unpin(g)

	for i := 0; i < 32; i++ {
		m.ForceAdvance()
	}
	if got := m.Stats().Reclaims; got != 0 {
		t.Fatalf("resurrected cell reclaimed: reclaims = %d, want 0", got)
	}
	if got := m.LimboLen(); got != 1 {
		t.Fatalf("limbo = %d, want 1 (requeued)", got)
	}

	m.Release(n) // the resurrecting link is dropped; claim already set
	if !m.Quiesce() {
		t.Fatalf("Quiesce failed; limbo = %d", m.LimboLen())
	}
	s := m.Stats()
	if s.Reclaims != 1 || s.Live() != 0 {
		t.Fatalf("reclaims = %d live = %d, want exactly 1 and 0", s.Reclaims, s.Live())
	}
}

// TestEBRRetiredLinksStayReadable pins down cell persistence across
// retirement: unlike RC's Reclaim, retiring must NOT clear next/back_link
// — pinned traversals may still be walking through the deleted cell. The
// links are dropped only when the grace period expires.
func TestEBRRetiredLinksStayReadable(t *testing.T) {
	m := NewEBR[int]()
	g := m.Pin()
	a := m.Alloc()
	b := m.Alloc()
	a.StoreNext(b)
	m.AddRef(b)  // counted link a→b
	m.Release(a) // a retired; holds the only surviving reference to b... plus ours

	if got := a.Next(); got != b {
		t.Fatalf("retired cell's next = %p, want %p (links must survive retirement)", got, b)
	}
	m.Release(b) // drop our allocation reference; the a→b link keeps b alive
	if got := b.RefCount(); got != 1 {
		t.Fatalf("b refcount = %d, want 1 (the a→b link)", got)
	}
	m.Unpin(g)
	if !m.Quiesce() {
		t.Fatalf("Quiesce failed; limbo = %d", m.LimboLen())
	}
	s := m.Stats()
	if s.Reclaims != 2 || s.Live() != 0 {
		t.Fatalf("reclaims = %d live = %d, want 2 and 0 (freeing a cascades to b)", s.Reclaims, s.Live())
	}
}

func TestEBRReleaseNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	m := NewEBR[int]()
	n := m.Alloc()
	m.Release(n)
	m.Release(n)
}

// TestEBRSlotBanksGrow takes more simultaneous pins than one bank holds;
// Pin must never block, and advancement must still see every slot.
func TestEBRSlotBanksGrow(t *testing.T) {
	m := NewEBR[int]()
	guards := make([]Guard, 3*slotsPerBank)
	seen := make(map[*eslot]bool)
	for i := range guards {
		guards[i] = m.Pin()
		if seen[guards[i].slot] {
			t.Fatalf("pin %d reused an already-pinned slot", i)
		}
		seen[guards[i].slot] = true
	}
	m.Release(m.Alloc())
	for i := 0; i < 8; i++ {
		m.ForceAdvance()
	}
	if e := m.Epoch(); e > 2 {
		t.Fatalf("epoch advanced to %d past %d active pins", e, len(guards))
	}
	for _, g := range guards {
		m.Unpin(g)
	}
	if !m.Quiesce() {
		t.Fatalf("Quiesce failed; limbo = %d", m.LimboLen())
	}
}

// TestEBRExtractorRunsOnFree mirrors RC's reclaim-extractor contract: the
// extractor's references are released when the retired cell is actually
// freed, not at retire time.
func TestEBRExtractorRunsOnFree(t *testing.T) {
	m := NewEBR[int]()
	b := m.Alloc() // the cell the extractor will surface, as a skip-list
	// tower's Down pointer would; our allocation reference stands in for
	// the item's counted reference.
	m.SetReclaimExtractor(func(item *int) (*Node[int], *Node[int]) {
		if *item == 1 {
			return b, nil
		}
		return nil, nil
	})
	a := m.Alloc()
	a.Item = 1
	m.Release(a) // retire a; freeing it must release the item's reference to b
	if !m.Quiesce() {
		t.Fatalf("Quiesce failed; limbo = %d", m.LimboLen())
	}
	s := m.Stats()
	if s.Reclaims != 2 || s.Live() != 0 {
		t.Fatalf("reclaims = %d live = %d, want 2 and 0 (a's free must cascade to b)", s.Reclaims, s.Live())
	}
}

// TestEBRChurnRace hammers the manager from several goroutines — pinned
// traversal windows, counted holds, retires, and concurrent advancement —
// under the race detector, then checks conservation.
func TestEBRChurnRace(t *testing.T) {
	m := NewEBR[int]()
	const workers = 4
	iters := testenv.Iters(20000)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held := make([]*Node[int], 0, 8)
			for i := 0; i < iters; i++ {
				g := m.Pin()
				n := m.Alloc()
				if len(held) == cap(held) {
					for _, h := range held {
						m.Release(h)
					}
					held = held[:0]
				}
				held = append(held, n)
				m.Unpin(g)
				if i%64 == 0 {
					m.ForceAdvance()
				}
			}
			for _, h := range held {
				m.Release(h)
			}
		}()
	}
	wg.Wait()
	if !m.Quiesce() {
		t.Fatalf("Quiesce failed; limbo = %d", m.LimboLen())
	}
	s := m.Stats()
	if s.Live() != 0 {
		t.Fatalf("live after churn = %d, want 0 (allocs %d, reclaims %d)", s.Live(), s.Allocs, s.Reclaims)
	}
	if s.Limbo != 0 {
		t.Fatalf("limbo gauge = %d, want 0", s.Limbo)
	}
}

// TestEBRPinnedReadersNeverSeeReuse is the grace period as readers
// experience it: writers keep replacing the cell behind one shared counted
// link — each replaced cell retires at once — and every goroutine forces
// advancement as fast as it can, while readers pin, load the link, and
// watch the cell they got. A cell handed back to the free list while a
// reader that could reach it is still pinned comes out of the next Alloc
// with its item zeroed and rewritten, which the reader sees (and the race
// detector reports). The window it guards is narrow — an advancement
// winner stopped between its Compare&Swap and the detaching of its bucket
// while one more advancement and a retire go by — so this is a soak, not
// a reproducer; the skip list's leak-accounting churn
// (internal/dict/ebrleak_test.go) is what first hit it.
func TestEBRPinnedReadersNeverSeeReuse(t *testing.T) {
	m := NewEBR[int]()
	var link atomic.Pointer[Node[int]]
	var serial atomic.Int64
	publish := func() {
		n := m.Alloc()
		n.Item = int(serial.Add(1))
		old := link.Swap(n) // the allocation reference becomes the link's
		m.Release(old)      // last reference: retires
	}
	publish()

	const writers, readers = 3, 3
	iters := testenv.Iters(60000)
	var wg sync.WaitGroup
	var failed atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters && !failed.Load(); i++ {
				g := m.Pin() // an operation retires inside its pin
				publish()
				m.Unpin(g)
				m.ForceAdvance()
			}
		}()
	}
	// Collections stop goroutines at arbitrary instructions — between an
	// advancement and its drain, say — and restart them in another order.
	stopGC := make(chan struct{})
	gcDone := make(chan struct{})
	go func() {
		defer close(gcDone)
		for {
			select {
			case <-stopGC:
				return
			default:
				runtime.GC()
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters && !failed.Load(); i++ {
				g := m.Pin()
				n := link.Load()
				want := n.Item
				for spin := 0; spin < 4; spin++ {
					runtime.Gosched()
					if got := n.Item; got != want {
						failed.Store(true)
						t.Errorf("cell recycled under a pinned reader: item %d became %d", want, got)
						break
					}
				}
				m.Unpin(g)
			}
		}()
	}
	wg.Wait()
	close(stopGC)
	<-gcDone
	m.Release(link.Swap(nil))
	if !m.Quiesce() {
		t.Fatalf("Quiesce failed; limbo = %d", m.LimboLen())
	}
	if live := m.Stats().Live(); live != 0 {
		t.Fatalf("live after churn = %d, want 0", live)
	}
}

// TestEBRTouchedCellRestartsGracePeriod: a resurrected cell's new link is
// readable by goroutines that pinned long after the cell first retired, so
// when that link is dropped the cell must wait out a fresh grace period —
// not be freed by the next drain of whatever bucket its last requeue left
// it in.
func TestEBRTouchedCellRestartsGracePeriod(t *testing.T) {
	// Whichever bucket the requeues have left the cell in when the link
	// is dropped — one case per phase of the rotation.
	for advances := 4; advances < 4+2*limboBuckets; advances++ {
		m := NewEBR[int]()
		g := m.Pin()
		n := m.Alloc()
		n.Item = 7
		m.Release(n) // retired; the raw pointer stays ours under the pin
		m.AddRef(n)  // resurrected by a new stored link
		m.Unpin(g)
		for i := 0; i < advances; i++ {
			m.ForceAdvance() // requeued while referenced
		}

		reader := m.Pin() // pinned epochs after the retire; reads the new link
		m.Release(n)      // the link is dropped while the reader uses the cell
		for i := 0; i < 16; i++ {
			m.ForceAdvance()
		}
		if got := m.Stats().Reclaims; got != 0 || n.Item != 7 {
			t.Fatalf("after %d advancements: touched cell freed under a reader pinned before its last reference was dropped (reclaims %d, item %d)",
				advances, got, n.Item)
		}
		m.Unpin(reader)
		if !m.Quiesce() {
			t.Fatalf("Quiesce failed; limbo = %d", m.LimboLen())
		}
		if s := m.Stats(); s.Reclaims != 1 || s.Live() != 0 {
			t.Fatalf("reclaims = %d live = %d, want exactly 1 and 0", s.Reclaims, s.Live())
		}
	}
}

// TestEBRAllocatorTransientRetiresThroughLimbo: Figure 17's pop bumps the
// count of the free-list head before re-checking it, and an allocator that
// loses that race gives the bump back. If the cell was meanwhile
// allocated, published and unlinked, that give-back is its last reference
// — and it must retire the cell, not reclaim it on the spot as RC would.
func TestEBRAllocatorTransientRetiresThroughLimbo(t *testing.T) {
	m := NewEBR[int]()
	n := m.Alloc()
	n.refct.Add(1) // a stalled allocator's transient SafeRead bump
	reader := m.Pin()
	m.Release(n) // the owner's reference: the transient keeps the count up
	m.fl.drop(n) // the stalled allocator resumes and undoes its bump
	if got := m.Stats().Reclaims; got != 0 {
		t.Fatalf("transient release reclaimed the cell at once (reclaims = %d), bypassing limbo", got)
	}
	if got := m.LimboLen(); got != 1 {
		t.Fatalf("limbo = %d, want 1", got)
	}
	m.Unpin(reader)
	if !m.Quiesce() || m.Stats().Live() != 0 {
		t.Fatalf("cell not reclaimed after the grace period: limbo %d, live %d", m.LimboLen(), m.Stats().Live())
	}
}

// TestEBRModePlumbing checks the NewManager switch and the mode names.
func TestEBRModePlumbing(t *testing.T) {
	m := NewManager[int](ModeEBR)
	if _, ok := m.(*EBR[int]); !ok {
		t.Fatalf("NewManager(ModeEBR) = %T, want *EBR", m)
	}
	if _, ok := m.(Pinner); !ok {
		t.Fatal("EBR manager does not implement Pinner")
	}
	if got := ModeEBR.String(); got != "ebr" {
		t.Fatalf("ModeEBR.String() = %q", got)
	}
	if mode, ok := ParseMode("ebr"); !ok || mode != ModeEBR {
		t.Fatalf("ParseMode(ebr) = %v, %v", mode, ok)
	}
}
