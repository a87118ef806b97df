package dict_test

import (
	"testing"

	"valois/internal/dict"
	"valois/internal/mm"
	"valois/internal/testenv"
)

// TestFindAllocs guards the in-frame cursor: a lookup allocates nothing
// in any memory mode, hit or miss.
func TestFindAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("the race detector allocates on its own")
	}
	const n = 256
	for _, mode := range []mm.Mode{mm.ModeGC, mm.ModeRC, mm.ModeEBR} {
		for _, tc := range []struct {
			name string
			d    dict.Dictionary[int, int]
		}{
			{"list", dict.NewSortedList[int, int](mode)},
			{"hash", dict.NewHash[int, int](64, mode, dict.HashInt)},
		} {
			for k := 0; k < n; k++ {
				tc.d.Insert(2*k, k)
			}
			k := 0
			got := testing.AllocsPerRun(500, func() {
				tc.d.Find(k % (2 * n)) // hits and misses alternate
				k += 37
			})
			if got != 0 {
				t.Errorf("%s/%s: Find %.1f allocs/op, want 0", tc.name, mode, got)
			}
		}
	}
}

// TestHashSharesOneManager: every bucket allocates from the table's one
// manager, so the table has one free list and one epoch domain.
func TestHashSharesOneManager(t *testing.T) {
	h := dict.NewHash[int, int](8, mm.ModeEBR, dict.HashInt)
	defer h.Close()
	m := h.Bucket(0).List().Manager()
	for i := 1; i < h.NumBuckets(); i++ {
		if h.Bucket(i).List().Manager() != m {
			t.Fatalf("bucket %d has its own manager", i)
		}
	}
	for k := 0; k < 100; k++ {
		h.Insert(k, k)
	}
	// Skeleton of 3 cells per bucket plus cell + aux per key, reported
	// once — not once per bucket.
	if got, want := h.MemStats().Live(), int64(3*8+2*100); got != want {
		t.Errorf("MemStats().Live() = %d, want %d", got, want)
	}
	if got, want := h.MemStats().Stripes, m.Stats().Stripes; got != want {
		t.Errorf("MemStats().Stripes = %d, want the shared manager's %d", got, want)
	}
}
