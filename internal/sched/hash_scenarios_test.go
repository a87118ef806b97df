package sched_test

import (
	"fmt"
	"testing"

	"valois/internal/dict"
	"valois/internal/mm"
	"valois/internal/sched"
)

// Exhaustive exploration of the hash dictionary (§4.1, "a
// straightforward extension" of the sorted list): the interesting
// schedules are the ones the hash function cannot spread apart — keys
// that collide in one bucket contend on that bucket's lock-free list
// exactly as the single-list scenarios do, with the dictionary layer's
// own retry loops (Figure 12/13 at dict level) on top. Every scenario
// uses a deliberately colliding hash so all operations meet in bucket 0,
// with a bystander key in bucket 1 proving the collision domain is
// bucket-sized, not structure-sized.

// collide maps even keys to bucket 0 and odd keys to bucket 1.
func collide(k int) uint64 { return uint64(k % 2) }

// newCollidingHash builds a two-bucket hash holding even (bucket 0) keys
// 10 and 30 plus the odd bystander 7 in bucket 1.
func newCollidingHash(mode mm.Mode, yield func()) *dict.Hash[int, int] {
	h := dict.NewHash[int, int](2, mode, collide)
	h.Insert(10, 10)
	h.Insert(30, 30)
	h.Insert(7, 7)
	h.SetYieldHook(yield)
	return h
}

// checkCollidingHash validates the bystander, both buckets' structure,
// and under RC exact reclamation at Close.
func checkCollidingHash(h *dict.Hash[int, int], mode mm.Mode) error {
	if v, ok := h.Find(7); !ok || v != 7 {
		return fmt.Errorf("bystander key 7 in the other bucket = %d,%v; want 7,true", v, ok)
	}
	for i := 0; i < 2; i++ {
		if err := h.Bucket(i).List().CheckQuiescent(); err != nil {
			return fmt.Errorf("bucket %d: %w", i, err)
		}
	}
	switch mode {
	case mm.ModeRC:
		h.Close()
		if live := h.MemStats().Live(); live != 0 {
			return fmt.Errorf("live cells after Close = %d, want 0", live)
		}
	case mm.ModeEBR:
		// Each bucket has its own manager; quiesce them all after Close.
		managers := make([]mm.Quiescer, 0, 2)
		for i := 0; i < 2; i++ {
			managers = append(managers, h.Bucket(i).List().Manager().(mm.Quiescer))
		}
		h.Close()
		for i, ebr := range managers {
			if !ebr.Quiesce() {
				return fmt.Errorf("bucket %d: ebr limbo did not drain: %d cells", i, ebr.LimboLen())
			}
		}
		if live := h.MemStats().Live(); live != 0 {
			return fmt.Errorf("live cells after Close+Quiesce = %d, want 0", live)
		}
	}
	return nil
}

func hashModes(t *testing.T, f func(t *testing.T, mode mm.Mode)) {
	t.Helper()
	t.Run("gc", func(t *testing.T) { f(t, mm.ModeGC) })
	t.Run("rc", func(t *testing.T) { f(t, mm.ModeRC) })
	t.Run("ebr", func(t *testing.T) { f(t, mm.ModeEBR) })
}

// TestExhaustiveHashInsertVsDeleteColliding races Insert(20) against
// Delete(30), both in bucket 0: the Figure 2 shape lifted to the
// dictionary layer. Under every schedule the insert lands, the delete
// wins its key, and the bucket list stays sound.
func TestExhaustiveHashInsertVsDeleteColliding(t *testing.T) {
	hashModes(t, func(t *testing.T, mode mm.Mode) {
		var h *dict.Hash[int, int]
		var inserted, deleted bool
		build := func(yield func()) sched.Scenario {
			h = newCollidingHash(mode, yield)
			inserted, deleted = false, false
			return sched.Scenario{
				Threads: []func(){
					func() { inserted = h.Insert(20, 20) },
					func() { deleted = h.Delete(30) },
				},
				Check: func() error {
					h.SetYieldHook(nil)
					if !inserted {
						return fmt.Errorf("Insert(20) returned false with no competing inserter")
					}
					if !deleted {
						return fmt.Errorf("Delete(30) returned false for a present key")
					}
					if v, ok := h.Find(20); !ok || v != 20 {
						return fmt.Errorf("Find(20) = %d,%v; want 20,true", v, ok)
					}
					if _, ok := h.Find(30); ok {
						return fmt.Errorf("deleted key 30 still present")
					}
					if n := h.Len(); n != 3 {
						return fmt.Errorf("Len = %d, want 3", n)
					}
					return checkCollidingHash(h, mode)
				},
			}
		}
		res, err := sched.Explore(sched.Options{MaxSchedules: 400_000}, build)
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Fatal("exploration truncated; raise the cap")
		}
		if res.Schedules < 5 {
			t.Fatalf("only %d schedules; the scenario is not interleaving", res.Schedules)
		}
		t.Logf("hash insert vs delete: %d schedules, ≤%d decisions", res.Schedules, res.MaxDecisions)
	})
}

// TestExhaustiveHashInsertInsertSameKey races two Inserts of the same
// colliding key: exactly one must win under every schedule (the paper's
// Insert refuses duplicates), and Find must return the winner's value.
func TestExhaustiveHashInsertInsertSameKey(t *testing.T) {
	hashModes(t, func(t *testing.T, mode mm.Mode) {
		var h *dict.Hash[int, int]
		var won [2]bool
		build := func(yield func()) sched.Scenario {
			h = newCollidingHash(mode, yield)
			won = [2]bool{}
			ins := func(i, val int) func() {
				return func() { won[i] = h.Insert(20, val) }
			}
			return sched.Scenario{
				Threads: []func(){ins(0, 100), ins(1, 200)},
				Check: func() error {
					h.SetYieldHook(nil)
					if won[0] == won[1] {
						return fmt.Errorf("wins = %v, want exactly one", won)
					}
					v, ok := h.Find(20)
					if !ok {
						return fmt.Errorf("key 20 missing after a successful insert")
					}
					if (won[0] && v != 100) || (won[1] && v != 200) {
						return fmt.Errorf("Find(20) = %d but wins = %v", v, won)
					}
					return checkCollidingHash(h, mode)
				},
			}
		}
		res, err := sched.Explore(sched.Options{MaxSchedules: 400_000}, build)
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Fatal("exploration truncated; raise the cap")
		}
		t.Logf("hash insert/insert same key: %d schedules, ≤%d decisions", res.Schedules, res.MaxDecisions)
	})
}

// TestExhaustiveHashDeleteDeleteSameKey races two Deletes of the same
// colliding key: exactly one must win under every schedule.
func TestExhaustiveHashDeleteDeleteSameKey(t *testing.T) {
	hashModes(t, func(t *testing.T, mode mm.Mode) {
		var h *dict.Hash[int, int]
		var won [2]bool
		build := func(yield func()) sched.Scenario {
			h = newCollidingHash(mode, yield)
			won = [2]bool{}
			del := func(i int) func() {
				return func() { won[i] = h.Delete(30) }
			}
			return sched.Scenario{
				Threads: []func(){del(0), del(1)},
				Check: func() error {
					h.SetYieldHook(nil)
					if won[0] == won[1] {
						return fmt.Errorf("wins = %v, want exactly one", won)
					}
					if _, ok := h.Find(30); ok {
						return fmt.Errorf("key 30 still present after delete")
					}
					if n := h.Len(); n != 2 {
						return fmt.Errorf("Len = %d, want 2", n)
					}
					return checkCollidingHash(h, mode)
				},
			}
		}
		res, err := sched.Explore(sched.Options{MaxSchedules: 400_000}, build)
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Fatal("exploration truncated; raise the cap")
		}
		t.Logf("hash delete/delete same key: %d schedules, ≤%d decisions", res.Schedules, res.MaxDecisions)
	})
}
