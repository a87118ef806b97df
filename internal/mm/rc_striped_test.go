package mm

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"valois/internal/testenv"
)

// TestRCStripedDefaults checks the construction-time knobs: the default
// stripe count follows GOMAXPROCS, WithStripes overrides it, and
// FaithfulOptions restores the paper's single free list.
func TestRCStripedDefaults(t *testing.T) {
	if got, want := NewRC[int]().NumStripes(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default stripes = %d, want GOMAXPROCS = %d", got, want)
	}
	if got := NewRC[int](WithStripes(6)).NumStripes(); got != 6 {
		t.Fatalf("WithStripes(6) stripes = %d, want 6", got)
	}
	if got := NewRC[int](WithStripes(0)).NumStripes(); got != 1 {
		t.Fatalf("WithStripes(0) stripes = %d, want clamped to 1", got)
	}
	m := NewRC[int](FaithfulOptions()...)
	if got := m.NumStripes(); got != 1 {
		t.Fatalf("faithful stripes = %d, want 1", got)
	}
	if !m.noBackoff {
		t.Fatal("faithful configuration should disable backoff")
	}
	if m.stride != 1 {
		t.Fatalf("faithful stride = %d, want packed (1)", m.stride)
	}
	if padded := NewRC[int](); padded.stride < 2 {
		t.Fatalf("padded stride for an 8-byte item = %d, want ≥ 2 (cells a cache line apart)", padded.stride)
	}
	// A payload already larger than a cache line needs no extra spacing.
	if big := NewRC[[16]int64](); big.stride != 1 {
		t.Fatalf("padded stride for a 128-byte item = %d, want 1", big.stride)
	}
}

// TestRCStealAvoidsGrow pins the steal path: when the claimed home stripe
// is empty but a sibling holds a free cell, Alloc must pop the sibling
// (counting a steal) rather than growing the arena.
func TestRCStealAvoidsGrow(t *testing.T) {
	m := NewRC[int](WithStripes(2), WithBatchSize(1))
	n := m.Alloc() // grows one cell on stripe 0 (the hint starts there)
	m.Release(n)   // pushes it back to stripe 0
	if got := m.Stats().Created; got != 1 {
		t.Fatalf("created = %d after one alloc/release, want 1", got)
	}

	// Occupy stripe 0 so the next claim lands on stripe 1, whose free
	// list is empty; the only free cell in the arena sits on stripe 0.
	m.stripes[0].busy.Store(1)
	n2 := m.Alloc()
	m.stripes[0].busy.Store(0)

	if n2 != n {
		t.Fatal("Alloc did not steal the sibling stripe's free cell")
	}
	s := m.Stats()
	if s.Created != 1 {
		t.Fatalf("created = %d after steal, want 1 (stealing must not grow)", s.Created)
	}
	if s.Steals != 1 {
		t.Fatalf("steals = %d, want 1", s.Steals)
	}
	per := m.StripeStats()
	if per[0].Steals != 1 {
		t.Fatalf("stripe 0 steals = %d, want 1 (the cell was taken from stripe 0)", per[0].Steals)
	}
	if per[1].Steals != 0 {
		t.Fatalf("stripe 1 steals = %d, want 0", per[1].Steals)
	}
	m.Release(n2)
}

// TestRCFreeLenQuiescenceContract pins FreeLen's documented contract: at
// quiescence it sums the free cells across every stripe and equals
// Created minus the cells currently checked out.
func TestRCFreeLenQuiescenceContract(t *testing.T) {
	m := NewRC[int](WithStripes(4), WithBatchSize(4))
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

// TestRCStripeCounterAccounting checks the counter identities that hold at
// quiescence with a grow batch of one (each grow creates exactly the cell
// it returns, so no grow surplus is ever pushed): every alloc is either a
// pop or a grow, and every push is a reclaim.
func TestRCStripeCounterAccounting(t *testing.T) {
	m := NewRC[int](WithStripes(3), WithBatchSize(1))
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
	if s.Stripes != 3 {
		t.Fatalf("stripes = %d, want 3", s.Stripes)
	}
	var perTotal StripeStats
	for _, st := range m.StripeStats() {
		perTotal.Pops += st.Pops
		perTotal.Pushes += st.Pushes
		perTotal.Grows += st.Grows
		perTotal.Steals += st.Steals
	}
	if perTotal.Pops != s.Pops || perTotal.Pushes != s.Pushes ||
		perTotal.Grows != s.Grows || perTotal.Steals != s.Steals {
		t.Fatalf("per-stripe sums %+v disagree with aggregate %+v", perTotal, s)
	}
}

// TestRCStripedStress hammers Alloc/Release from several goroutines
// against a deliberately striped manager, with the yield hook opening the
// read-head-then-Compare&Swap windows so pops, pushes, and steals actually
// interleave (on a single-CPU host they otherwise run quasi-serially).
// The race detector run in CI executes this with VALOIS_STRESS_DIV set;
// conservation must hold at quiescence.
func TestRCStripedStress(t *testing.T) {
	const (
		goroutines = 8
		holdMax    = 24
	)
	iterations := testenv.Iters(20000)
	m := NewRC[int](WithStripes(4), WithBatchSize(8))
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

// TestStatsAdd checks the Stats aggregation helper.
func TestStatsAdd(t *testing.T) {
	a := Stats{Allocs: 1, Reclaims: 2, Created: 3, Pops: 4, Pushes: 5, Grows: 6, Steals: 7, Stripes: 2}
	b := Stats{Allocs: 10, Reclaims: 20, Created: 30, Pops: 40, Pushes: 50, Grows: 60, Steals: 70, Stripes: 1}
	a.Add(b)
	want := Stats{Allocs: 11, Reclaims: 22, Created: 33, Pops: 44, Pushes: 55, Grows: 66, Steals: 77, Stripes: 3}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}
