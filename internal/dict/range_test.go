package dict

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"valois/internal/mm"
	"valois/internal/testenv"
)

// TestRangeMonotoneUnderChurn is the regression test for the traversal
// rejoin phenomenon documented in internal/core: a raw cursor sweep over a
// list whose cells are deleted and reinserted concurrently can rejoin the
// live list at an earlier position. Range must nevertheless report keys in
// strictly ascending order.
func TestRangeMonotoneUnderChurn(t *testing.T) {
	duration := 2 * time.Second
	if testing.Short() {
		duration = 200 * time.Millisecond
	}
	duration = testenv.Duration(duration)
	s := NewSortedList[int, int](mm.ModeGC)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := rng.Intn(24) // hot keys: maximal delete/reinsert churn
				if rng.Intn(3) > 0 {
					s.Insert(k, k)
				} else {
					s.Delete(k)
				}
			}
		}(int64(g + 1))
	}
	var violation atomic.Bool
	var scans atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			prev := -1
			s.Range(func(k, _ int) bool {
				if k <= prev {
					violation.Store(true)
					stop.Store(true)
					return false
				}
				prev = k
				return true
			})
			scans.Add(1)
		}
	}()
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	if violation.Load() {
		t.Fatal("Range reported keys out of order under churn")
	}
	if scans.Load() == 0 {
		t.Fatal("scanner completed no scans")
	}
}

func TestSortedListRangeFrom(t *testing.T) {
	s := NewSortedList[int, string](mm.ModeGC)
	for k := 10; k <= 50; k += 10 {
		s.Insert(k, "v")
	}
	var keys []int
	s.RangeFrom(25, func(k int, _ string) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 3 || keys[0] != 30 || keys[2] != 50 {
		t.Fatalf("RangeFrom(25) keys = %v, want [30 40 50]", keys)
	}
	keys = nil
	s.RangeFrom(30, func(k int, _ string) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 3 || keys[0] != 30 {
		t.Fatalf("RangeFrom(30) keys = %v, want [30 40 50] (inclusive start)", keys)
	}
}

// TestHashRangeVisitsEveryItemOnce: the hash's Range is bucket order, not
// key order, but it reports every live item exactly once, skips deleted
// ones, stops when f returns false, and agrees with Len.
func TestHashRangeVisitsEveryItemOnce(t *testing.T) {
	for _, mode := range []mm.Mode{mm.ModeGC, mm.ModeEBR} {
		h := NewHash[int, int](8, mode, HashInt)
		for k := 0; k < 100; k++ {
			h.Insert(k, 2*k)
		}
		for k := 0; k < 100; k += 3 {
			h.Delete(k)
		}
		seen := make(map[int]bool)
		h.Range(func(k, v int) bool {
			if seen[k] || v != 2*k || k%3 == 0 {
				t.Fatalf("%s: Range reported %d=%d (seen before: %v)", mode, k, v, seen[k])
			}
			seen[k] = true
			return true
		})
		if len(seen) != 66 || h.Len() != 66 {
			t.Fatalf("%s: Range saw %d items, Len = %d; want 66", mode, len(seen), h.Len())
		}
		n := 0
		h.Range(func(int, int) bool { n++; return n < 5 })
		if n != 5 {
			t.Fatalf("%s: Range called f %d times after it returned false at 5", mode, n)
		}
		h.Close()
	}
}
