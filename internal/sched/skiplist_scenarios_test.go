package sched_test

import (
	"fmt"
	"testing"

	"valois/internal/mm"
	"valois/internal/sched"
	"valois/internal/skiplist"
)

// Exhaustive exploration of the skip list's cross-level races: towers are
// built bottom-up while deletions tear them down top-down (§4.1), so an
// insertion and a deletion of the same key can interleave anywhere in
// between. The bottom level is authoritative; whatever the schedule, the
// outcome visible through Find must agree with the operations' return
// values.

func skipModes(t *testing.T, f func(t *testing.T, mode mm.Mode)) {
	t.Helper()
	t.Run("gc", func(t *testing.T) { f(t, mm.ModeGC) })
	t.Run("rc", func(t *testing.T) { f(t, mm.ModeRC) })
	t.Run("ebr", func(t *testing.T) { f(t, mm.ModeEBR) })
}

// TestExhaustiveSkipListDeleteVsReinsert races Delete(k) against a
// re-Insert(k) of a key that is present with a multi-level tower: the
// deletion tears the tower down top-to-bottom while the insertion tries
// to publish a new bottom cell and build a new tower — the §4.1
// "insertions bottom-up, deletions top-down" interaction. Under every
// schedule the delete must win its key exactly once, the insert succeeds
// iff it linearizes after the bottom-level removal, and Find must agree.
func TestExhaustiveSkipListDeleteVsReinsert(t *testing.T) {
	skipModes(t, func(t *testing.T, mode mm.Mode) {
		var s *skiplist.SkipList[int, int]
		var inserted, deleted bool
		build := func(yield func()) sched.Scenario {
			// Fixed seed so key 20's original tower spans two levels.
			s = skiplist.New[int, int](mode, skiplist.WithMaxLevel(3), skiplist.WithSeed(3))
			s.Insert(10, 10)
			s.Insert(20, 20)
			s.Insert(30, 30)
			s.SetYieldHook(yield)
			inserted, deleted = false, false
			return sched.Scenario{
				Threads: []func(){
					func() { deleted = s.Delete(20) },
					func() { inserted = s.Insert(20, 99) },
				},
				Check: func() error {
					s.SetYieldHook(nil)
					if !deleted {
						return fmt.Errorf("Delete(20) returned false for a present key")
					}
					v, present := s.Find(20)
					if present != inserted {
						return fmt.Errorf("present=%v but inserted=%v", present, inserted)
					}
					if present && v != 99 {
						return fmt.Errorf("Find(20) = %d, want the re-inserted 99", v)
					}
					// The authoritative bottom level must be structurally
					// sound under every schedule.
					if err := s.Level(0).CheckQuiescent(); err != nil {
						return err
					}
					for _, k := range []int{10, 30} {
						if _, ok := s.Find(k); !ok {
							return fmt.Errorf("bystander key %d lost", k)
						}
					}
					return nil
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
		if res.Schedules < 20 {
			t.Fatalf("only %d schedules; the scenario is not interleaving", res.Schedules)
		}
		t.Logf("skiplist delete vs reinsert: %d schedules, ≤%d decisions", res.Schedules, res.MaxDecisions)
	})
}

// TestExhaustiveSkipListDeleteMinRace races two DeleteMins over a
// two-item structure: every schedule must hand out each item exactly once
// and in some order consistent with priorities.
func TestExhaustiveSkipListDeleteMinRace(t *testing.T) {
	skipModes(t, func(t *testing.T, mode mm.Mode) {
		var s *skiplist.SkipList[int, int]
		type got struct {
			k  int
			ok bool
		}
		var res1, res2 got
		build := func(yield func()) sched.Scenario {
			s = skiplist.New[int, int](mode, skiplist.WithMaxLevel(2), skiplist.WithSeed(1))
			s.Insert(10, 10)
			s.Insert(20, 20)
			s.SetYieldHook(yield)
			res1, res2 = got{}, got{}
			return sched.Scenario{
				Threads: []func(){
					func() { k, _, ok := s.DeleteMin(); res1 = got{k, ok} },
					func() { k, _, ok := s.DeleteMin(); res2 = got{k, ok} },
				},
				Check: func() error {
					s.SetYieldHook(nil)
					if !res1.ok || !res2.ok {
						return fmt.Errorf("results %v %v: both DeleteMins must succeed on 2 items", res1, res2)
					}
					if res1.k == res2.k {
						return fmt.Errorf("both extracted %d", res1.k)
					}
					if res1.k+res2.k != 30 {
						return fmt.Errorf("extracted %d and %d, want 10 and 20", res1.k, res2.k)
					}
					if s.Len() != 0 {
						return fmt.Errorf("Len = %d after draining, want 0", s.Len())
					}
					return s.Level(0).CheckQuiescent()
				},
			}
		}
		exp, err := sched.Explore(sched.Options{MaxSchedules: 400_000}, build)
		if err != nil {
			t.Fatal(err)
		}
		if exp.Truncated {
			t.Fatal("exploration truncated; raise the cap")
		}
		t.Logf("skiplist DeleteMin race: %d schedules, ≤%d decisions", exp.Schedules, exp.MaxDecisions)
	})
}

// TestExhaustiveSkipListInsertVsDelete races the insertion of a key whose
// tower spans two levels against a deletion of the same key. When the
// deletion finds the new bottom cell, the insertion may still be building
// the tower; whichever way the two interleave, no index cell may be left
// behind for a key the bottom level no longer holds (it would keep the
// dead bottom cell, and whatever is chained behind it, from being
// reclaimed until the key's next deletion).
func TestExhaustiveSkipListInsertVsDelete(t *testing.T) {
	skipModes(t, func(t *testing.T, mode mm.Mode) {
		var s *skiplist.SkipList[int, int]
		var inserted, deleted bool
		build := func(yield func()) sched.Scenario {
			// With this seed the second insertion draws a two-level tower.
			s = skiplist.New[int, int](mode, skiplist.WithMaxLevel(2), skiplist.WithSeed(5))
			s.Insert(10, 10)
			s.SetYieldHook(yield)
			inserted, deleted = false, false
			return sched.Scenario{
				Threads: []func(){
					func() { inserted = s.Insert(20, 20) },
					func() { deleted = s.Delete(20) },
				},
				Check: func() error {
					s.SetYieldHook(nil)
					if !inserted {
						return fmt.Errorf("Insert(20) of an absent key returned false")
					}
					if _, present := s.Find(20); present == deleted {
						return fmt.Errorf("present=%v but deleted=%v", present, deleted)
					}
					if got, want := s.Level(1).Len(), 1; deleted && got != 0 || !deleted && got != want {
						return fmt.Errorf("deleted=%v but level 1 holds %d index cells", deleted, got)
					}
					for i := 0; i < s.Levels(); i++ {
						if err := s.Level(i).CheckQuiescent(); err != nil {
							return fmt.Errorf("level %d: %w", i, err)
						}
					}
					return nil
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
		t.Logf("skiplist insert vs delete: %d schedules, ≤%d decisions", res.Schedules, res.MaxDecisions)
	})
}

// TestExhaustiveSkipListFindBatchOrder races FindBatch([a, b]) against
// Upsert(b); Upsert(a). The batch's two lookups must linearize in
// request order, as two Finds in a row would: if the lookup of a sees
// a's new value, both Upserts came before it, so the later lookup of b
// sees b's new value too. The outcome (a new, b old) is forbidden. The
// fixture makes b's descent end before a's, so a batch that loaded
// boxes where its interleaved descents end, instead of in request order
// afterwards, would read b before a and show that outcome.
func TestExhaustiveSkipListFindBatchOrder(t *testing.T) {
	const a, b = 30, 10
	skipModes(t, func(t *testing.T, mode mm.Mode) {
		var s *skiplist.SkipList[int, int]
		vals, oks := make([]int, 2), make([]bool, 2)
		build := func(yield func()) sched.Scenario {
			// With this seed only 20 has an index cell: a's descent
			// takes three steps, b's two.
			s = skiplist.New[int, int](mode, skiplist.WithMaxLevel(2), skiplist.WithSeed(5))
			s.Insert(b, b)
			s.Insert(20, 20)
			s.Insert(a, a)
			if top := s.Level(1).Len(); top != 1 {
				panic(fmt.Sprintf("fixture: %d index cells on level 1, want only 20's", top))
			}
			s.SetYieldHook(yield)
			clear(vals)
			clear(oks)
			return sched.Scenario{
				Threads: []func(){
					func() { s.FindBatch([]int{a, b}, vals, oks) },
					func() {
						s.Upsert(b, b+1)
						s.Upsert(a, a+1)
					},
				},
				Check: func() error {
					s.SetYieldHook(nil)
					if !oks[0] || !oks[1] {
						return fmt.Errorf("FindBatch missed a bound key: oks = %v", oks)
					}
					if vals[0] == a+1 && vals[1] == b {
						return fmt.Errorf("FindBatch([%d, %d]) = %v: saw the second Upsert but not the first", a, b, vals)
					}
					return s.Level(0).CheckQuiescent()
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
		t.Logf("FindBatch vs two Upserts: %d schedules, ≤%d decisions", res.Schedules, res.MaxDecisions)
	})
}
