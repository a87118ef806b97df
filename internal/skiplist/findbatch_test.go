package skiplist

import (
	"fmt"
	"math/rand"
	"testing"

	"valois/internal/mm"
)

// TestFindBatchMatchesFind: a batch answers what one Find per key
// answers, for runs shorter than, equal to and longer than readRun,
// with keys repeated, out of order, missing, below the first key and
// past the last, in every mode.
func TestFindBatchMatchesFind(t *testing.T) {
	for _, mode := range []mm.Mode{mm.ModeGC, mm.ModeRC, mm.ModeEBR} {
		t.Run(mode.String(), func(t *testing.T) {
			s := warm(mode, 1024) // even keys 0..2046
			rng := rand.New(rand.NewSource(1))
			for _, n := range []int{0, 1, 2, 7, readRun - 1, readRun, readRun + 1, 3*readRun + 5} {
				keys := make([]int, n)
				for i := range keys {
					keys[i] = rng.Intn(2100) - 10
				}
				if n > 2 {
					keys[1] = keys[0]
				}
				vals, oks := make([]int, n), make([]bool, n)
				s.FindBatch(keys, vals, oks)
				for i, k := range keys {
					v, ok := s.Find(k)
					if vals[i] != v || oks[i] != ok {
						t.Fatalf("run of %d: key %d: FindBatch = %d, %v; Find = %d, %v", n, k, vals[i], oks[i], v, ok)
					}
				}
			}
			if mode == mm.ModeRC {
				s.Close()
				if live := s.MemStats().Live(); live != 0 {
					t.Fatalf("live cells after Close = %d, want 0: a batch leaked a reference", live)
				}
			}
		})
	}
}

// TestFindBatchHops: with no writers, a batch visits exactly the cells
// that one Find per key visits — interleaving reorders the descents'
// steps, it adds none.
func TestFindBatchHops(t *testing.T) {
	for _, mode := range []mm.Mode{mm.ModeGC, mm.ModeRC, mm.ModeEBR} {
		t.Run(mode.String(), func(t *testing.T) {
			s := warm(mode, 4096)
			s.EnableStats()
			rng := rand.New(rand.NewSource(2))
			keys := make([]int, 200)
			for i := range keys {
				keys[i] = rng.Intn(8200)
			}
			before := s.WorkStats().Hops
			for _, k := range keys {
				s.Find(k)
			}
			single := s.WorkStats().Hops - before
			s.FindBatch(keys, make([]int, len(keys)), make([]bool, len(keys)))
			batched := s.WorkStats().Hops - before - single
			if single == 0 || batched != single {
				t.Fatalf("cells visited: %d by one Find per key, %d by FindBatch; want equal and nonzero", single, batched)
			}
			t.Logf("%.1f cells per Find over 4096 keys", float64(single)/float64(len(keys)))
		})
	}
}

// agedStrings returns an ebr skip list holding n keys "key:%08d" (the
// even ones of a 2n-key space) after n random deletions and
// re-insertions, so cells neighbouring in key order lie apart in the
// arena, as they do in a long-running server, and the whole key space.
func agedStrings(n int) (*SkipList[string, []byte], []string) {
	space := make([]string, 2*n)
	for i := range space {
		space[i] = fmt.Sprintf("key:%08d", i)
	}
	s := New[string, []byte](mm.ModeEBR)
	rng := rand.New(rand.NewSource(1))
	value := make([]byte, 64)
	for _, i := range rng.Perm(n) {
		s.Insert(space[2*i], value)
	}
	for j := 0; j < n; j++ {
		k := space[2*rng.Intn(n)]
		s.Delete(k)
		s.Insert(k, value)
	}
	return s, space
}

// BenchmarkFindBatch compares one Find per key with FindBatch over runs
// of 1, 8 and 48 uniformly drawn keys (about half present) on an aged
// 65 536-key ebr list, far larger than the caches. ns/key is the cost of
// one lookup.
func BenchmarkFindBatch(b *testing.B) {
	const n = 1 << 16
	s, space := agedStrings(n)
	rng := rand.New(rand.NewSource(2))
	keys := make([]string, 1<<14)
	for i := range keys {
		keys[i] = space[rng.Intn(len(space))]
	}
	vals, oks := make([][]byte, 48), make([]bool, 48)
	b.Run("Find", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Find(keys[i%len(keys)])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/key")
	})
	for _, run := range []int{1, 8, 48} {
		b.Run(fmt.Sprintf("run=%d", run), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				at := i * run % (len(keys) - run)
				s.FindBatch(keys[at:at+run], vals, oks)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*run), "ns/key")
		})
	}
}
