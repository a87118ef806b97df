// Benchmarks, one per reproduction experiment (DESIGN.md E1–E9), plus
// micro-benchmarks of the primitive operations. The cmd/lfbench tool runs
// the same experiments as duration-based sweeps and prints the paper-style
// tables; these testing.B entry points measure the identical workload
// shapes per operation so `go test -bench=.` regenerates every row.
package valois_test

import (
	"math"
	"math/rand"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"valois"
	"valois/internal/bst"
	"valois/internal/core"
	"valois/internal/dict"
	"valois/internal/mm"
	"valois/internal/skiplist"
	"valois/internal/spinlock"
	"valois/internal/universal"
	"valois/internal/workload"
)

const benchKeySpace = 512

// benchDict drives a dictionary with the E1 mix (50/25/25) from parallel
// workers.
func benchDict(b *testing.B, d dict.Dictionary[int, int], mix workload.Mix, keySpace int) {
	b.Helper()
	workload.Prefill(workload.Config{KeySpace: keySpace, Prefill: keySpace / 2, Seed: 1}, d)
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			k := rng.Intn(keySpace)
			p := rng.Intn(100)
			switch {
			case p < mix.FindPct:
				d.Find(k)
			case p < mix.FindPct+mix.InsertPct:
				d.Insert(k, k)
			default:
				d.Delete(k)
			}
		}
	})
}

// BenchmarkE1ListVsLocks is experiment E1: the lock-free sorted list
// against the same sequential list under each spin lock (claim C1,
// "competitive with spin locks").
func BenchmarkE1ListVsLocks(b *testing.B) {
	b.SetParallelism(8)
	b.Run("lockfree/gc", func(b *testing.B) {
		benchDict(b, dict.NewSortedList[int, int](mm.ModeGC), workload.Mixed(), benchKeySpace)
	})
	b.Run("lockfree/rc", func(b *testing.B) {
		benchDict(b, dict.NewSortedList[int, int](mm.ModeRC), workload.Mixed(), benchKeySpace)
	})
	for _, kind := range spinlock.LockKinds() {
		kind := kind
		b.Run("lock/"+kind, func(b *testing.B) {
			benchDict(b, spinlock.NewLockedList[int, int](spinlock.NewLock(kind)), workload.Mixed(), benchKeySpace)
		})
	}
}

// BenchmarkE2DelayInjection is experiment E2: one operation in 100 stalls
// for 50µs — inside the critical section for the locked list, inside the
// operation window for the lock-free list (claim C2, convoying).
func BenchmarkE2DelayInjection(b *testing.B) {
	b.SetParallelism(8)
	delay := func() func() {
		var n atomic.Int64
		return func() {
			if n.Add(1)%100 == 0 {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	b.Run("lockfree/gc", func(b *testing.B) {
		d := dict.NewSortedList[int, int](mm.ModeGC)
		workload.Prefill(workload.Config{KeySpace: benchKeySpace, Prefill: benchKeySpace / 2, Seed: 1}, d)
		hook := delay()
		var seed atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(seed.Add(1)))
			for pb.Next() {
				hook() // a stalled lock-free operation blocks only itself
				k := rng.Intn(benchKeySpace)
				switch rng.Intn(4) {
				case 0:
					d.Insert(k, k)
				case 1:
					d.Delete(k)
				default:
					d.Find(k)
				}
			}
		})
	})
	b.Run("lock/mutex", func(b *testing.B) {
		d := spinlock.NewLockedList[int, int](spinlock.NewLock("mutex"))
		workload.Prefill(workload.Config{KeySpace: benchKeySpace, Prefill: benchKeySpace / 2, Seed: 1}, d)
		d.SetDelay(delay()) // the stall happens while holding the lock
		var seed atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(seed.Add(1)))
			for pb.Next() {
				k := rng.Intn(benchKeySpace)
				switch rng.Intn(4) {
				case 0:
					d.Insert(k, k)
				case 1:
					d.Delete(k)
				default:
					d.Find(k)
				}
			}
		})
	})
}

// BenchmarkE3SortedWork is experiment E3: extra work per sorted-list
// operation as the list grows (claim C4, O(n²) total for n operations).
func BenchmarkE3SortedWork(b *testing.B) {
	b.SetParallelism(8)
	for _, n := range []int{256, 1024} {
		b.Run(sizeName(n), func(b *testing.B) {
			s := dict.NewSortedList[int, int](mm.ModeGC)
			s.EnableStats()
			workload.Prefill(workload.Config{KeySpace: 2 * n, Prefill: n, Seed: 1}, s)
			s.List().Stats().Reset()
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seed.Add(1)))
				for pb.Next() {
					k := rng.Intn(2 * n)
					if rng.Intn(2) == 0 {
						s.Insert(k, k)
					} else {
						s.Delete(k)
					}
				}
			})
			b.StopTimer()
			w := s.List().Stats().Snapshot()
			b.ReportMetric(float64(w.ExtraWork())/float64(b.N), "extrawork/op")
		})
	}
}

// BenchmarkE4HashWork is experiment E4: per-operation cost of the hash
// dictionary stays flat as n grows at fixed load factor (claim C5, O(1)).
func BenchmarkE4HashWork(b *testing.B) {
	b.SetParallelism(8)
	for _, n := range []int{1024, 16384} {
		b.Run(sizeName(n), func(b *testing.B) {
			h := dict.NewHash[int, int](n/2, mm.ModeGC, dict.HashInt)
			h.EnableStats()
			workload.Prefill(workload.Config{KeySpace: 2 * n, Prefill: n, Seed: 1}, h)
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seed.Add(1)))
				for pb.Next() {
					k := rng.Intn(2 * n)
					if rng.Intn(2) == 0 {
						h.Insert(k, k)
					} else {
						h.Delete(k)
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(h.WorkStats().ExtraWork())/float64(b.N), "extrawork/op")
		})
	}
}

// BenchmarkE5SkipVsList is experiment E5: the skip list's O(log n) search
// against the sorted list's O(n) (claim C6).
func BenchmarkE5SkipVsList(b *testing.B) {
	b.SetParallelism(8)
	for _, n := range []int{512, 4096} {
		b.Run("sortedlist/"+sizeName(n), func(b *testing.B) {
			benchDict(b, dict.NewSortedList[int, int](mm.ModeGC), workload.ReadMostly(), 2*n)
		})
		b.Run("skiplist/"+sizeName(n), func(b *testing.B) {
			benchDict(b, skiplist.New[int, int](mm.ModeGC), workload.ReadMostly(), 2*n)
		})
	}
}

// BenchmarkE6BST is experiment E6: find+insert cost on the tree tracks
// the expected O(log n) height (claim C7).
func BenchmarkE6BST(b *testing.B) {
	b.SetParallelism(8)
	for _, n := range []int{1024, 32768} {
		b.Run(sizeName(n), func(b *testing.B) {
			tr := bst.New[int, int](mm.ModeGC)
			workload.Prefill(workload.Config{KeySpace: 4 * n, Prefill: n, Seed: 1}, tr)
			var seed atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seed.Add(1)))
				for pb.Next() {
					k := rng.Intn(4 * n)
					if rng.Intn(2) == 0 {
						tr.Find(k)
					} else {
						tr.Insert(k, k)
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/math.Log2(float64(n)), "ns/op/log2n")
		})
	}
}

// BenchmarkE7Universal is experiment E7: the direct implementation
// against the copy-the-object universal construction (claim C3).
func BenchmarkE7Universal(b *testing.B) {
	b.SetParallelism(8)
	b.Run("direct-list", func(b *testing.B) {
		benchDict(b, dict.NewSortedList[int, int](mm.ModeGC), workload.Mixed(), benchKeySpace)
	})
	b.Run("direct-hash", func(b *testing.B) {
		benchDict(b, dict.NewHash[int, int](benchKeySpace/4, mm.ModeGC, dict.HashInt), workload.Mixed(), benchKeySpace)
	})
	b.Run("universal", func(b *testing.B) {
		benchDict(b, universal.New[int, int](), workload.Mixed(), benchKeySpace)
	})
}

// BenchmarkE8SafeRead is experiment E8: raw cursor traversal, GC manager
// (SafeRead = load) vs RC manager (two counter updates per hop; claim C8).
func BenchmarkE8SafeRead(b *testing.B) {
	const size = 4096
	for _, mode := range []mm.Mode{mm.ModeGC, mm.ModeRC} {
		b.Run(mode.String(), func(b *testing.B) {
			l := core.New(mm.NewManager[int](mode))
			c := l.NewCursor()
			for i := 0; i < size; i++ {
				q, a := l.AllocInsertNodes(i)
				if !c.TryInsert(q, a) {
					b.Fatal("prefill insert failed")
				}
				l.ReleaseNodes(q, a)
				c.Update()
			}
			c.Close()
			b.ResetTimer()
			items := 0
			for items < b.N {
				tc := l.NewCursor()
				for !tc.End() && items < b.N {
					items++
					tc.Next()
				}
				tc.Close()
			}
		})
	}
}

// BenchmarkE9Freelist is experiment E9: Alloc/Release pairs through the
// lock-free free list vs garbage-collected allocation (claim C9).
func BenchmarkE9Freelist(b *testing.B) {
	b.SetParallelism(8)
	for _, mode := range []mm.Mode{mm.ModeRC, mm.ModeGC} {
		b.Run(mode.String(), func(b *testing.B) {
			m := mm.NewManager[int](mode)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					n := m.Alloc()
					m.Release(n)
				}
			})
		})
	}
}

// --- micro-benchmarks of the §3 operations through the public API ---

func BenchmarkCursorTraversal(b *testing.B) {
	l := valois.NewList[int](valois.GC)
	c := l.Cursor()
	for i := 0; i < 1024; i++ {
		c.Insert(i)
	}
	c.Close()
	b.ResetTimer()
	items := 0
	for items < b.N {
		tc := l.Cursor()
		for !tc.End() && items < b.N {
			items++
			tc.Next()
		}
		tc.Close()
	}
}

func BenchmarkCursorInsertDeleteFront(b *testing.B) {
	l := valois.NewList[int](valois.GC)
	c := l.Cursor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		c.Insert(i)
		c.Reset()
		for !c.TryDelete() {
			c.Update()
		}
	}
	c.Close()
}

func BenchmarkQueueEnqueueDequeue(b *testing.B) {
	q := valois.NewQueue[int]()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q.Enqueue(1)
			q.Dequeue()
		}
	})
}

func BenchmarkStackPushPop(b *testing.B) {
	s := valois.NewStack[int]()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.Push(1)
			s.Pop()
		}
	})
}

func BenchmarkManagedQueue(b *testing.B) {
	for _, mode := range []valois.MemoryMode{valois.GC, valois.RC} {
		b.Run(mode.String(), func(b *testing.B) {
			q := valois.NewManagedQueue[int](mode)
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					q.Enqueue(1)
					q.Dequeue()
				}
			})
		})
	}
}

func sizeName(n int) string {
	if n >= 1024 && n%1024 == 0 {
		return "n=" + strconv.Itoa(n/1024) + "k"
	}
	return "n=" + strconv.Itoa(n)
}
