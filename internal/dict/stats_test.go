package dict

import (
	"sync"
	"testing"

	"valois/internal/mm"
)

func TestSortedListStatsAndKnobs(t *testing.T) {
	s := NewSortedList[int, int](mm.ModeRC)
	counters := s.EnableStats()
	s.EnableTorture(2)
	s.DisableBackoff()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := i % 8 // hot keys to force retries through the torture yields
				s.Insert(k, g)
				s.Delete(k)
			}
		}(g)
	}
	wg.Wait()
	w := counters.Snapshot()
	if w.ExtraWork() == 0 {
		t.Fatal("tortured hot-key churn recorded no extra work")
	}
	if got := s.Len(); got < 0 || got > 8 {
		t.Fatalf("Len = %d, want within [0,8]", got)
	}
	counters.Reset()
	if counters.Snapshot().ExtraWork() != 0 {
		t.Fatal("Reset did not zero the counters")
	}
	s.Close()
	if live := s.List().Manager().(*mm.RC[entry[int, int]]).Stats().Live(); live != 0 {
		t.Fatalf("live cells after Close = %d, want 0", live)
	}
}

func TestHashStatsAndKnobs(t *testing.T) {
	h := NewHash[int, int](4, mm.ModeRC, HashInt)
	h.EnableStats()
	h.EnableTorture(2)
	h.DisableBackoff()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := i % 8
				h.Insert(k, g)
				h.Delete(k)
			}
		}(g)
	}
	wg.Wait()
	if w := h.WorkStats(); w.ExtraWork() == 0 {
		t.Fatal("tortured hot-key churn recorded no extra work across buckets")
	}
	if got := h.Len(); got < 0 || got > 8 {
		t.Fatalf("Len = %d, want within [0,8]", got)
	}
	h.Close()
}

func TestNegativeBucketCountClamped(t *testing.T) {
	h := NewHash[int, int](0, mm.ModeGC, HashInt)
	if !h.Insert(1, 1) {
		t.Fatal("insert into clamped single-bucket hash failed")
	}
	if v, ok := h.Find(1); !ok || v != 1 {
		t.Fatalf("Find = %d,%v", v, ok)
	}
}
