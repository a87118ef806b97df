package mm

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"valois/internal/testenv"
)

func TestRCAllocGivesCallerReference(t *testing.T) {
	m := NewRC[int]()
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
	if s := m.Stats(); s.Allocs != 1 || s.Live() != 1 {
		t.Fatalf("stats = %+v, want 1 alloc live", s)
	}
}

func TestRCReleaseReclaimsAndReuses(t *testing.T) {
	m := NewRC[int](WithBatchSize(1))
	n := m.Alloc()
	m.Release(n)
	if s := m.Stats(); s.Live() != 0 {
		t.Fatalf("live = %d after release, want 0", s.Live())
	}
	// The free list is a stack (§5.2), so the next Alloc returns the same
	// cell.
	n2 := m.Alloc()
	if n2 != n {
		t.Fatalf("Alloc did not reuse the reclaimed cell")
	}
	if got := n2.RefCount(); got != 1 {
		t.Fatalf("reused cell refcount = %d, want 1", got)
	}
	if got := n2.claim.Load(); got != 0 {
		t.Fatalf("reused cell claim = %d, want 0 (Fig 17 line 8)", got)
	}
	if n2.Next() != nil || n2.BackLink() != nil {
		t.Fatal("reused cell has stale links")
	}
}

func TestRCAllocZeroesItemAndKind(t *testing.T) {
	m := NewRC[string](WithBatchSize(1))
	n := m.Alloc()
	n.Item = "stale"
	n.SetKind(KindCell)
	m.Release(n)
	n2 := m.Alloc()
	if n2 != n {
		t.Fatal("expected reuse")
	}
	if n2.Item != "" {
		t.Fatalf("reused cell item = %q, want zero value", n2.Item)
	}
	if n2.Kind() != 0 {
		t.Fatalf("reused cell kind = %v, want unset", n2.Kind())
	}
}

func TestRCCapacityExhaustion(t *testing.T) {
	m := NewRC[int](WithCapacity(3), WithBatchSize(2))
	var nodes []*Node[int]
	for i := 0; i < 3; i++ {
		n := m.Alloc()
		if n == nil {
			t.Fatalf("Alloc %d returned nil below capacity", i)
		}
		nodes = append(nodes, n)
	}
	if n := m.Alloc(); n != nil {
		t.Fatal("Alloc beyond capacity should return nil (Fig 17 line 3)")
	}
	m.Release(nodes[0])
	if n := m.Alloc(); n == nil {
		t.Fatal("Alloc after a Release should succeed again")
	}
}

func TestRCSafeReadAcquiresReference(t *testing.T) {
	m := NewRC[int]()
	n := m.Alloc()
	var p atomic.Pointer[Node[int]]
	p.Store(n)

	got := m.SafeRead(&p)
	if got != n {
		t.Fatal("SafeRead returned wrong cell")
	}
	if rc := n.RefCount(); rc != 2 {
		t.Fatalf("refcount after SafeRead = %d, want 2", rc)
	}
	m.Release(got)
	if rc := n.RefCount(); rc != 1 {
		t.Fatalf("refcount after Release = %d, want 1", rc)
	}
}

func TestRCSafeReadNil(t *testing.T) {
	m := NewRC[int]()
	var p atomic.Pointer[Node[int]]
	if got := m.SafeRead(&p); got != nil {
		t.Fatalf("SafeRead of nil pointer = %v, want nil", got)
	}
	m.Release(nil) // must be a no-op
	m.AddRef(nil)  // must be a no-op
}

func TestRCReleaseCascadesThroughLinks(t *testing.T) {
	m := NewRC[int]()
	// Build a → b → c through counted next links and give b a counted
	// back_link to d; releasing the head must reclaim all four cells
	// (the Michael & Scott correction: Reclaim releases contained
	// pointers).
	a, b, c, d := m.Alloc(), m.Alloc(), m.Alloc(), m.Alloc()
	a.StoreNext(b)
	m.AddRef(b)
	b.StoreNext(c)
	m.AddRef(c)
	b.StoreBackLink(d)
	m.AddRef(d)
	// Drop the direct allocation references of b, c, d: only the links
	// keep them alive now.
	m.Release(b)
	m.Release(c)
	m.Release(d)
	if s := m.Stats(); s.Live() != 4 {
		t.Fatalf("live = %d, want 4 (a holds the chain)", s.Live())
	}
	m.Release(a)
	if s := m.Stats(); s.Live() != 0 {
		t.Fatalf("live = %d after cascade, want 0", s.Live())
	}
}

func TestRCTransientSafeReadOnFreeCell(t *testing.T) {
	// A SafeRead can transiently bump the count of a cell that is already
	// on the free list (its pointer read was stale). The claim bit must
	// prevent the subsequent Release from pushing the cell a second time.
	m := NewRC[int](WithBatchSize(1))
	n := m.Alloc()
	var p atomic.Pointer[Node[int]]
	p.Store(n)
	m.Release(n) // n is now free; p is a stale pointer to it

	before := m.Stats().Reclaims
	// Emulate the interleaving inside SafeRead: the increment lands, the
	// re-check would fail in a real race, and Release takes it back.
	n.refct.Add(1)
	m.Release(n)
	if after := m.Stats().Reclaims; after != before {
		t.Fatalf("free cell reclaimed twice (reclaims %d → %d)", before, after)
	}
	if got := m.FreeLen(); got != 1 {
		t.Fatalf("free list length = %d, want 1", got)
	}
}

func TestRCDoubleReleasePanics(t *testing.T) {
	m := NewRC[int]()
	n := m.Alloc()
	m.Release(n)
	// Reallocate so the cell has a real owner, then corrupt the count.
	n2 := m.Alloc()
	if n2 != n {
		t.Fatal("expected reuse")
	}
	m.Release(n2)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	m.Release(n2)
}

// TestABANaiveStackCorrupts reproduces §5.1's ABA scenario on a free list
// that reuses cells without reference counts: process P1 is about to pop A
// and has read A.next = B; meanwhile P2 pops A and B, keeps B in use, and
// pushes A back; P1's Compare&Swap then succeeds even though the stack has
// changed, installing the in-use cell B as the new head.
func TestABANaiveStackCorrupts(t *testing.T) {
	var head atomic.Pointer[Node[int]]
	nodes := make([]Node[int], 3)
	a, b, c := &nodes[0], &nodes[1], &nodes[2]
	// Stack: head → A → B → C.
	c.next.Store(nil)
	b.next.Store(c)
	a.next.Store(b)
	head.Store(a)

	naivePop := func() *Node[int] {
		for {
			q := head.Load()
			if q == nil {
				return nil
			}
			if head.CompareAndSwap(q, q.next.Load()) {
				return q
			}
		}
	}
	naivePush := func(n *Node[int]) {
		for {
			q := head.Load()
			n.next.Store(q)
			if head.CompareAndSwap(q, n) {
				return
			}
		}
	}

	// P1 begins a pop: reads the head and its next pointer, then stalls.
	p1Head := head.Load()
	p1Next := p1Head.next.Load()
	if p1Head != a || p1Next != b {
		t.Fatal("unexpected initial stack")
	}

	// P2 runs: pops A, pops B and keeps it (B is now "allocated"), then
	// frees A, pushing it back.
	if got := naivePop(); got != a {
		t.Fatal("P2 expected to pop A")
	}
	inUse := naivePop()
	if inUse != b {
		t.Fatal("P2 expected to pop B")
	}
	naivePush(a)

	// P1 resumes: its Compare&Swap succeeds — head is A again — and
	// installs B, a cell owned by P2, as the head of the free list.
	if !head.CompareAndSwap(p1Head, p1Next) {
		t.Fatal("ABA Compare&Swap unexpectedly failed; the demonstration schedule broke")
	}
	if head.Load() != b {
		t.Fatal("expected the corrupted head to be the in-use cell B")
	}
	// The stack now hands out B while P2 still owns it: corruption.
	if got := naivePop(); got != inUse {
		t.Fatal("expected the corrupted stack to hand out the in-use cell")
	}
}

// TestABAPreventedByReferenceCounts runs the same schedule against the RC
// manager's free list: P1's SafeRead holds a reference to A, so A cannot
// return to the free list while P1 is stalled, the head can never be A
// again, and P1's Compare&Swap fails harmlessly (§5.1).
func TestABAPreventedByReferenceCounts(t *testing.T) {
	m := NewRC[int](WithBatchSize(1))
	free := &m.head
	// Materialize three cells and free them so the free list is C → B → A
	// ... actually A → B → C in pop order (LIFO).
	x, y, z := m.Alloc(), m.Alloc(), m.Alloc()
	m.Release(z)
	m.Release(y)
	m.Release(x)
	a := free.Load()
	if a != x {
		t.Fatal("expected x on top of the free list")
	}

	// P1 begins Alloc: SafeRead of the free list head, then stalls.
	p1 := m.SafeRead(free)
	if p1 != a {
		t.Fatal("P1 expected to read A")
	}
	p1Next := p1.next.Load()

	// P2 allocates A and B, keeps B, and releases A.
	gotA := m.Alloc()
	if gotA != a {
		t.Fatal("P2 expected to allocate A")
	}
	inUse := m.Alloc()
	m.Release(gotA)

	// Because P1 still holds a reference, A was NOT pushed back: its
	// count dropped to 1, not 0.
	if free.Load() == a {
		t.Fatal("A returned to the free list despite P1's reference")
	}

	// P1 resumes: the Compare&Swap of Fig 17 line 4 must fail.
	if free.CompareAndSwap(p1, p1Next) {
		t.Fatal("ABA Compare&Swap succeeded under reference counting")
	}
	m.Release(p1) // Fig 17 line 6; this is the last reference: A is reclaimed

	// Conservation: the in-use cell is live, everything else is free.
	if s := m.Stats(); s.Live() != 1 {
		t.Fatalf("live = %d, want 1 (only P2's cell)", s.Live())
	}
	m.Release(inUse)
	if s := m.Stats(); s.Live() != 0 {
		t.Fatalf("live = %d at quiescence, want 0", s.Live())
	}
	if got, want := int64(m.FreeLen()), m.Stats().Created; got != want {
		t.Fatalf("free list has %d cells, want all %d created", got, want)
	}
}

func TestRCConcurrentChurn(t *testing.T) {
	const (
		goroutines = 8
		iterations = 2000
		holdMax    = 16
	)
	m := NewRC[int](WithBatchSize(8))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var held []*Node[int]
			for i := 0; i < iterations; i++ {
				if len(held) < holdMax && (len(held) == 0 || rng.Intn(2) == 0) {
					n := m.Alloc()
					n.Item = i
					held = append(held, n)
				} else {
					j := rng.Intn(len(held))
					m.Release(held[j])
					held[j] = held[len(held)-1]
					held = held[:len(held)-1]
				}
			}
			for _, n := range held {
				m.Release(n)
			}
		}(int64(g + 1))
	}
	wg.Wait()
	s := m.Stats()
	if s.Live() != 0 {
		t.Fatalf("live = %d at quiescence, want 0", s.Live())
	}
	if got := int64(m.FreeLen()); got != s.Created {
		t.Fatalf("free list has %d cells, want all %d created", got, s.Created)
	}
}

func TestRCConcurrentSafeReadChurn(t *testing.T) {
	// Readers SafeRead a shared slot while a writer continually swaps in
	// fresh cells and releases old ones; the count protocol must keep the
	// managed cells conserved.
	const (
		readers = 6
		swaps   = 3000
	)
	m := NewRC[int](WithBatchSize(4))
	var slot atomic.Pointer[Node[int]]
	first := m.Alloc()
	slot.Store(first)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := m.SafeRead(&slot)
				if n != nil {
					_ = n.Item
					m.Release(n)
				}
			}
		}()
	}
	for i := 0; i < swaps; i++ {
		n := m.Alloc()
		n.Item = i
		old := slot.Swap(n)
		m.Release(old)
	}
	close(stop)
	wg.Wait()
	m.Release(slot.Swap(nil))
	if s := m.Stats(); s.Live() != 0 {
		t.Fatalf("live = %d at quiescence, want 0", s.Live())
	}
}

func TestRCConservationProperty(t *testing.T) {
	// Property: for any sequence of alloc/release choices, allocations
	// minus reclamations equals the number of cells still held.
	f := func(choices []bool) bool {
		m := NewRC[int](WithBatchSize(3))
		var held []*Node[int]
		for _, alloc := range choices {
			if alloc || len(held) == 0 {
				held = append(held, m.Alloc())
			} else {
				m.Release(held[len(held)-1])
				held = held[:len(held)-1]
			}
		}
		if m.Stats().Live() != int64(len(held)) {
			return false
		}
		for _, n := range held {
			m.Release(n)
		}
		return m.Stats().Live() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRCFreeLenQuiescenceContract pins FreeLen's documented contract: at
// quiescence it equals Created minus the cells currently checked out.
func TestRCFreeLenQuiescenceContract(t *testing.T) {
	m := NewRC[int](WithBatchSize(4))
	var held []*Node[int]
	for i := 0; i < 10; i++ {
		held = append(held, m.Alloc())
	}
	for _, n := range held[:6] {
		m.Release(n)
	}
	s := m.Stats()
	if got, want := int64(m.FreeLen()), s.Created-s.Live(); got != want {
		t.Fatalf("FreeLen = %d, want Created-Live = %d", got, want)
	}
	for _, n := range held[6:] {
		m.Release(n)
	}
	s = m.Stats()
	if s.Live() != 0 {
		t.Fatalf("live = %d at quiescence, want 0", s.Live())
	}
	if got := int64(m.FreeLen()); got != s.Created {
		t.Fatalf("FreeLen = %d at quiescence, want all %d created cells", got, s.Created)
	}
	// The free population is also exactly the push/pop imbalance.
	if got := int64(m.FreeLen()); got != s.Pushes-s.Pops {
		t.Fatalf("FreeLen = %d, want Pushes-Pops = %d", got, s.Pushes-s.Pops)
	}
}

// TestRCCounterAccounting checks the counter identities that hold at
// quiescence with a grow batch of one (each grow creates exactly the cell
// it returns, so no grow surplus is ever pushed): every alloc is either a
// pop or a grow, and every push is a reclaim.
func TestRCCounterAccounting(t *testing.T) {
	m := NewRC[int](WithBatchSize(1))
	var held []*Node[int]
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		if len(held) == 0 || rng.Intn(2) == 0 {
			held = append(held, m.Alloc())
		} else {
			j := rng.Intn(len(held))
			m.Release(held[j])
			held[j] = held[len(held)-1]
			held = held[:len(held)-1]
		}
	}
	for _, n := range held {
		m.Release(n)
	}
	s := m.Stats()
	if s.Allocs != s.Pops+s.Grows {
		t.Fatalf("allocs = %d, want pops+grows = %d+%d", s.Allocs, s.Pops, s.Grows)
	}
	if s.Pushes != s.Reclaims {
		t.Fatalf("pushes = %d, want reclaims = %d (batch=1 has no grow surplus)", s.Pushes, s.Reclaims)
	}
}

// TestRCStress hammers Alloc/Release from several goroutines, with the
// yield hook opening the read-head-then-Compare&Swap windows so pops and
// pushes actually interleave (on a single-CPU host they otherwise run
// quasi-serially). The race detector run in CI executes this with
// VALOIS_STRESS_DIV set; conservation must hold at quiescence.
func TestRCStress(t *testing.T) {
	const (
		goroutines = 8
		holdMax    = 24
	)
	iterations := testenv.Iters(20000)
	m := NewRC[int](WithBatchSize(8))
	var ctr atomic.Uint32
	m.SetYieldHook(func() {
		if ctr.Add(1)%16 == 0 {
			runtime.Gosched()
		}
	})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var held []*Node[int]
			for i := 0; i < iterations; i++ {
				if len(held) < holdMax && (len(held) == 0 || rng.Intn(2) == 0) {
					n := m.Alloc()
					n.Item = i
					held = append(held, n)
				} else {
					j := rng.Intn(len(held))
					m.Release(held[j])
					held[j] = held[len(held)-1]
					held = held[:len(held)-1]
				}
			}
			for _, n := range held {
				m.Release(n)
			}
		}(int64(g + 1))
	}
	wg.Wait()
	s := m.Stats()
	if s.Live() != 0 {
		t.Fatalf("live = %d at quiescence, want 0", s.Live())
	}
	if got := int64(m.FreeLen()); got != s.Created {
		t.Fatalf("free list has %d cells, want all %d created", got, s.Created)
	}
	if got := int64(m.FreeLen()); got != s.Pushes-s.Pops {
		t.Fatalf("FreeLen = %d, want Pushes-Pops = %d", got, s.Pushes-s.Pops)
	}
	if s.Allocs != s.Pops+s.Grows {
		t.Fatalf("allocs = %d, want pops+grows = %d+%d", s.Allocs, s.Pops, s.Grows)
	}
}

func TestGCManagerBasics(t *testing.T) {
	m := NewGC[int]()
	n := m.Alloc()
	if n == nil {
		t.Fatal("GC Alloc returned nil")
	}
	var p atomic.Pointer[Node[int]]
	p.Store(n)
	if got := m.SafeRead(&p); got != n {
		t.Fatal("GC SafeRead is not a plain load")
	}
	m.AddRef(n)
	m.Release(n)
	m.Release(n) // arbitrarily many releases are no-ops under GC
	if s := m.Stats(); s.Allocs != 1 {
		t.Fatalf("stats = %+v, want 1 alloc", s)
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindCell, "cell"},
		{KindAux, "aux"},
		{KindFirst, "first"},
		{KindLast, "last"},
		{Kind(0), "invalid"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
}
