package skiplist

import (
	"cmp"
	"sync/atomic"
	"testing"

	"valois/internal/mm"
	"valois/internal/testenv"
)

// suiteOpts is prepended to the options of every skip list the suite
// builds through newSuite, so TestSuiteAboveFramePreds can re-run the
// suite on a different shape.
var suiteOpts []Option

func newSuite[K cmp.Ordered, V any](mode mm.Mode, opts ...Option) *SkipList[K, V] {
	return New[K, V](mode, append(append([]Option(nil), suiteOpts...), opts...)...)
}

// TestSuiteAboveFramePreds re-runs the suite with more levels than the
// per-operation frame array holds, which takes every operation through
// predsIn's heap fallback.
func TestSuiteAboveFramePreds(t *testing.T) {
	suiteOpts = []Option{WithMaxLevel(framePreds + 8)}
	defer func() { suiteOpts = nil }()
	for _, tc := range []struct {
		name string
		f    func(*testing.T)
	}{
		{"Basics", TestBasics},
		{"ManyKeysAscendingOrder", TestManyKeysAscendingOrder},
		{"LevelSubsetProperty", TestLevelSubsetProperty},
		{"DeleteRemovesIndexCells", TestDeleteRemovesIndexCells},
		{"RCLeakFreeAfterChurnAndClose", TestRCLeakFreeAfterChurnAndClose},
		{"ConcurrentDistinctKeys", TestConcurrentDistinctKeys},
		{"ConcurrentSameKeyOps", TestConcurrentSameKeyOps},
		{"ConcurrentMixedChurnConservation", TestConcurrentMixedChurnConservation},
		{"RangeMonotoneUnderChurn", TestRangeMonotoneUnderChurn},
		{"FindStartsFromIndexedPredecessor", TestFindStartsFromIndexedPredecessor},
		{"MinAndDeleteMinSequential", TestMinAndDeleteMinSequential},
		{"DeleteMinConcurrentDistinct", TestDeleteMinConcurrentDistinct},
		{"RangeFrom", TestRangeFrom},
	} {
		t.Run(tc.name, tc.f)
	}
}

// warm returns a skip list holding the even keys below 2n.
func warm(mode mm.Mode, n int) *SkipList[int, int] {
	s := New[int, int](mode, WithSeed(7))
	for k := 0; k < n; k++ {
		s.Insert(2*k, k)
	}
	return s
}

// TestOperationAllocs guards the in-frame cursor and predecessor array,
// and FindBatch's in-frame descents: a seek allocates nothing, whatever
// it finds.
func TestOperationAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector allocates on its own")
	}
	const n = 2048
	for _, mode := range []mm.Mode{mm.ModeGC, mm.ModeEBR, mm.ModeRC} {
		t.Run(mode.String(), func(t *testing.T) {
			s := warm(mode, n)
			k := 0
			find := testing.AllocsPerRun(500, func() {
				s.Find(k % (2 * n)) // hits and misses alternate
				k += 37
			})
			if find > 0 { // parent: 18
				t.Errorf("Find: %.1f allocs/op, want 0", find)
			}
			keys := make([]int, 2*readRun+1)
			vals, oks := make([]int, len(keys)), make([]bool, len(keys))
			for _, run := range []int{8, len(keys)} {
				batch := testing.AllocsPerRun(200, func() {
					for i := range keys[:run] {
						keys[i] = k % (2 * n)
						k += 37
					}
					s.FindBatch(keys[:run], vals, oks)
				})
				if batch > 0 {
					t.Errorf("FindBatch of %d keys: %.1f allocs/op, want 0", run, batch)
				}
			}
			taken := 0
			visit := func(int, int) bool { taken++; return taken < 32 }
			scan := testing.AllocsPerRun(200, func() {
				taken = 0
				s.RangeFrom(k%n, visit)
				k += 37
			})
			if scan > 2 {
				t.Errorf("RangeFrom of 32 items: %.1f allocs/op, want ≤ 2", scan)
			}
			miss := testing.AllocsPerRun(200, func() {
				s.Delete(2*(k%n) + 1) // odd keys are never present
				k += 37
			})
			if miss > 0 {
				t.Errorf("Delete miss: %.1f allocs/op, want 0", miss)
			}
		})
	}
}

// countingEBR counts the epoch pins the structure takes.
type countingEBR[T any] struct {
	*mm.EBR[T]
	pins, unpins atomic.Int64
}

func (m *countingEBR[T]) Pin() mm.Guard {
	m.pins.Add(1)
	return m.EBR.Pin()
}

func (m *countingEBR[T]) Unpin(g mm.Guard) {
	m.unpins.Add(1)
	m.EBR.Unpin(g)
}

// TestOnePinPerOperation: under mode=ebr a dictionary operation enters its
// epoch once and leaves it once, on every return path.
func TestOnePinPerOperation(t *testing.T) {
	ebr := mm.NewEBR[item[int, int]]()
	ebr.SetReclaimExtractor(downOf[int, int])
	m := &countingEBR[item[int, int]]{EBR: ebr}
	s := newOn[int, int](m, defaultMaxLevel, 7)
	for k := 0; k < 256; k++ {
		s.Insert(2*k, k)
	}
	stop := func(int, int) bool { return false }
	all := func(int, int) bool { return true }
	for _, op := range []struct {
		name string
		f    func()
	}{
		{"Find hit", func() { s.Find(100) }},
		{"Find miss", func() { s.Find(101) }},
		{"Find past the end", func() { s.Find(1 << 20) }},
		{"FindBatch of a run", func() { s.FindBatch([]int{100, 1 << 20, 3, 101}, make([]int, 4), make([]bool, 4)) }},
		{"Insert new", func() { s.Insert(101, 0) }},
		{"Insert duplicate", func() { s.Insert(100, 0) }},
		{"Delete hit", func() { s.Delete(101) }},
		{"Delete miss", func() { s.Delete(103) }},
		{"RangeFrom stopped at once", func() { s.RangeFrom(50, stop) }},
		{"RangeFrom to the end", func() { s.RangeFrom(400, all) }},
		{"RangeFrom past the end", func() { s.RangeFrom(1<<20, all) }},
		{"Range", func() { s.Range(stop) }},
		{"Min", func() { s.Min() }},
		{"DeleteMin", func() { s.DeleteMin() }},
	} {
		pins, unpins := m.pins.Load(), m.unpins.Load()
		op.f()
		if p, u := m.pins.Load()-pins, m.unpins.Load()-unpins; p != 1 || u != 1 {
			t.Errorf("%s: %d Pin, %d Unpin; want 1 and 1", op.name, p, u)
		}
	}
}
