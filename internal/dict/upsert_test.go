package dict_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"valois/internal/bst"
	"valois/internal/dict"
	"valois/internal/linearize"
	"valois/internal/mm"
	"valois/internal/skiplist"
	"valois/internal/testenv"
)

// Upsert on all four backends: the value box swapped by Compare&Swap,
// Delete linearizing at the box's tombstone, and the probe that a bound
// key is never missed while it is overwritten.

// closer is what every backend offers beyond the Dictionary interface.
type closer interface {
	Close()
	MemStats() mm.Stats
}

// allBackends runs f on each of the four dictionary structures under each
// memory mode. Under mm.ModeRC it also checks that closing the structure
// reclaims every cell, so a reference leaked or dropped twice on an
// Upsert or tombstone path fails here.
func allBackends(t *testing.T, f func(t *testing.T, d dict.Dictionary[int, int])) {
	t.Helper()
	makers := []struct {
		name string
		make func(mm.Mode) dict.Dictionary[int, int]
	}{
		{"list", func(m mm.Mode) dict.Dictionary[int, int] { return dict.NewSortedList[int, int](m) }},
		{"hash", func(m mm.Mode) dict.Dictionary[int, int] { return dict.NewHash[int, int](4, m, dict.HashInt) }},
		{"skiplist", func(m mm.Mode) dict.Dictionary[int, int] { return skiplist.New[int, int](m) }},
		{"bst", func(m mm.Mode) dict.Dictionary[int, int] { return bst.New[int, int](m) }},
	}
	for _, mk := range makers {
		for _, mode := range []mm.Mode{mm.ModeGC, mm.ModeRC, mm.ModeEBR} {
			t.Run(mk.name+"-"+mode.String(), func(t *testing.T) {
				d := mk.make(mode)
				f(t, d)
				c := d.(closer)
				c.Close()
				if mode == mm.ModeRC {
					if live := c.MemStats().Live(); live != 0 {
						t.Fatalf("live cells after Close = %d, want 0", live)
					}
				}
			})
		}
	}
}

// atLeastTwoProcs makes the test run with real parallelism even where
// GOMAXPROCS defaults to 1, and restores the setting afterwards.
func atLeastTwoProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestUpsertSemantics(t *testing.T) {
	allBackends(t, func(t *testing.T, d dict.Dictionary[int, int]) {
		d.Upsert(5, 50) // absent: inserts
		if v, ok := d.Find(5); !ok || v != 50 {
			t.Fatalf("Find(5) = %d,%v after Upsert of an absent key; want 50,true", v, ok)
		}
		d.Upsert(5, 51) // present: replaces
		if v, ok := d.Find(5); !ok || v != 51 {
			t.Fatalf("Find(5) = %d,%v after overwrite; want 51,true", v, ok)
		}
		if d.Insert(5, 52) {
			t.Fatal("Insert of an upserted key succeeded (Fig 12 refuses duplicates)")
		}
		if !d.Delete(5) {
			t.Fatal("Delete of an upserted key failed")
		}
		if _, ok := d.Find(5); ok {
			t.Fatal("Find after Delete reported a hit")
		}
		if d.Delete(5) {
			t.Fatal("second Delete succeeded")
		}
		d.Upsert(5, 53) // absent again: a fresh cell
		if v, ok := d.Find(5); !ok || v != 53 {
			t.Fatalf("Find(5) = %d,%v after re-Upsert; want 53,true", v, ok)
		}
		for k := 0; k < 10; k++ {
			d.Upsert(k, k)
			d.Upsert(k, k*10)
		}
		if n := d.(interface{ Len() int }).Len(); n != 10 {
			t.Fatalf("Len = %d after upserting 10 keys twice; want 10", n)
		}
		if o, ok := d.(interface {
			Range(func(int, int) bool)
		}); ok {
			// Key order for the ordered backends; the hash reports its
			// items in bucket order.
			_, ordered := d.(interface {
				RangeFrom(int, func(int, int) bool)
			})
			seen := make(map[int]bool)
			o.Range(func(k, v int) bool {
				if seen[k] || v != k*10 || ordered && k != len(seen) {
					t.Fatalf("Range item %d = %d,%d; want each key once, bound to 10×key (in key order: %v)", len(seen), k, v, ordered)
				}
				seen[k] = true
				return true
			})
			if len(seen) != 10 {
				t.Fatalf("Range reported %d items; want 10", len(seen))
			}
		}
	})
}

// TestUpsertHotKeyNeverMissed is the probe for SET's old absent window:
// writers overwrite one key that is never deleted while readers look it
// up, with the neighbouring keys churned by Upsert and Delete around it.
// Every lookup must hit and return a value some writer stored. Composing
// an overwrite from Delete and Insert missed 29–42 % of such lookups at
// two CPUs; Upsert must miss none.
func TestUpsertHotKeyNeverMissed(t *testing.T) {
	atLeastTwoProcs(t)
	const hot = 50
	writes := testenv.Iters(20000)
	allBackends(t, func(t *testing.T, d dict.Dictionary[int, int]) {
		for k := 40; k <= 60; k++ {
			d.Upsert(k, 0)
		}
		var done atomic.Bool
		var wg sync.WaitGroup
		for w := 1; w <= 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 1; i <= writes; i++ {
					d.Upsert(hot, i)
				}
			}()
		}
		wg.Add(1)
		go func() { // neighbours: tombstones and unlinks beside the hot cell
			defer wg.Done()
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < writes; i++ {
				k := 45 + rng.Intn(11)
				if k == hot {
					continue
				}
				if i%2 == 0 {
					d.Delete(k)
				} else {
					d.Upsert(k, i)
				}
			}
		}()
		var reads, misses, bad atomic.Int64
		var readers sync.WaitGroup
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for !done.Load() {
					v, ok := d.Find(hot)
					reads.Add(1)
					switch {
					case !ok:
						misses.Add(1)
					case v < 0 || v > writes:
						bad.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		done.Store(true)
		readers.Wait()
		if misses.Load() != 0 || bad.Load() != 0 {
			t.Fatalf("%d of %d lookups of a never-deleted key missed, %d returned a value never written",
				misses.Load(), reads.Load(), bad.Load())
		}
		if v, ok := d.Find(hot); !ok || v != writes {
			t.Fatalf("Find(hot) = %d,%v at quiescence; want %d,true", v, ok, writes)
		}
	})
}

// TestUpsertLinearizable records concurrent histories of Upsert, Insert,
// Delete and Find over a handful of keys and checks them against the
// sequential dictionary specification, in which Upsert always binds.
func TestUpsertLinearizable(t *testing.T) {
	atLeastTwoProcs(t)
	rounds := testenv.Iters(40)
	allBackends(t, func(t *testing.T, d dict.Dictionary[int, int]) {
		for round := 0; round < rounds; round++ {
			rec := linearize.NewRecorder(d)
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				s := rec.Session()
				rng := rand.New(rand.NewSource(int64(round*10 + g)))
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 30; i++ {
						k := round*8 + rng.Intn(3) // fresh keys each round
						v := g*1000 + i
						switch op := rng.Intn(10); {
						case op < 4:
							s.Upsert(k, v)
						case op < 5:
							s.Insert(k, v)
						case op < 7:
							s.Delete(k)
						default:
							s.Find(k)
						}
					}
				}()
			}
			wg.Wait()
			if res := linearize.Check(rec.History()); !res.OK {
				msg := fmt.Sprintf("round %d: history NOT linearizable at key %d:", round, res.BadKey)
				for _, e := range res.BadHistory {
					msg += "\n  " + e.String()
				}
				t.Fatal(msg)
			}
		}
	})
}
