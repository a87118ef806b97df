package sched_test

import (
	"fmt"
	"testing"

	"valois/internal/dict"
	"valois/internal/linearize"
	"valois/internal/mm"
	"valois/internal/sched"
	"valois/internal/skiplist"
)

// Exhaustive exploration of Upsert and of Delete's tombstone on all four
// dictionaries. Besides its structural Compare&Swaps, the sorted list
// (and so the hash table) yields before every value-box load and
// Compare&Swap, so the schedules cover every order of the linearization
// points (dict.Box) against the unlinking that follows a tombstone. The
// skip list and the tree, whose searches already yield at every level or
// hop, yield before Upsert's (and DeleteMin's) box steps only, which keeps
// their older scenarios' schedule spaces where they were. Every schedule's history — the
// threads' operations plus lookups at quiescence — must be linearizable
// against the sequential dictionary specification, the structure must be
// sound with no tombstoned cell left linked, and closing it must reclaim
// every cell under rc and ebr.

// fixture is one freshly built dictionary under exploration.
type fixture struct {
	d       dict.Dictionary[int, int]
	unhook  func()       // removes the yield hook before the final checks
	check   func() error // structural invariants at quiescence
	close   func()
	mem     func() mm.Stats
	manager any // the cell manager, drained before the leak check under ebr
}

// dictScenario is a set of threads racing on a fixture that holds keys
// (each bound to itself) when they start.
type dictScenario struct {
	fresh   func(mode mm.Mode, yield func()) fixture
	keys    []int
	threads []func(s *linearize.Session)
	probe   []int // keys looked up at quiescence
}

func exploreDict(t *testing.T, sc dictScenario) {
	t.Helper()
	for _, mode := range []mm.Mode{mm.ModeGC, mm.ModeRC, mm.ModeEBR} {
		t.Run(mode.String(), func(t *testing.T) {
			var f fixture
			var rec *linearize.Recorder
			build := func(yield func()) sched.Scenario {
				f = sc.fresh(mode, yield)
				rec = linearize.NewRecorder(f.d)
				setup := rec.Session() // recorded, so the checker starts from the fixture
				for _, k := range sc.keys {
					setup.Insert(k, k)
				}
				threads := make([]func(), len(sc.threads))
				for i, op := range sc.threads {
					s := rec.Session()
					threads[i] = func() { op(s) }
				}
				return sched.Scenario{Threads: threads, Check: func() error {
					f.unhook()
					final := rec.Session()
					for _, k := range sc.probe {
						final.Find(k)
					}
					if res := linearize.Check(rec.History()); !res.OK {
						return fmt.Errorf("history not linearizable at key %d: %v", res.BadKey, res.BadHistory)
					}
					if err := f.check(); err != nil {
						return err
					}
					f.close()
					if q, ok := f.manager.(mm.Quiescer); ok && !q.Quiesce() {
						return fmt.Errorf("ebr limbo did not drain: %d cells", q.LimboLen())
					}
					if live := f.mem().Live(); mode != mm.ModeGC && live != 0 {
						return fmt.Errorf("live cells after Close = %d, want 0", live)
					}
					return nil
				}}
			}
			res, err := sched.Explore(sched.Options{MaxSchedules: 400_000}, build)
			if err != nil {
				t.Fatal(err)
			}
			if res.Truncated {
				t.Fatal("exploration truncated; raise the cap")
			}
			if res.Schedules < 2 {
				t.Fatalf("only %d schedule; the scenario is not interleaving", res.Schedules)
			}
			t.Logf("%d schedules, ≤%d decisions", res.Schedules, res.MaxDecisions)
		})
	}
}

// noTombstones compares the cells a quiescent list still links with the
// live items it reports: every Delete unlinks what it tombstoned before
// returning, so the two counts must agree.
func noTombstones(linked, live int) error {
	if linked != live {
		return fmt.Errorf("%d cells linked but %d live: a tombstoned cell was left in the list", linked, live)
	}
	return nil
}

func sortedListFixture(mode mm.Mode, yield func()) fixture {
	l := dict.NewSortedList[int, int](mode)
	l.List().SetYieldHook(yield)
	return fixture{
		d:      l,
		unhook: func() { l.List().SetYieldHook(nil) },
		check: func() error {
			if err := l.List().CheckQuiescent(); err != nil {
				return err
			}
			return noTombstones(len(l.List().Items()), l.Len())
		},
		close:   l.Close,
		mem:     l.MemStats,
		manager: l.List().Manager(),
	}
}

// hashFixture is a two-bucket table under the colliding hash: even keys
// share bucket 0, odd ones bucket 1.
func hashFixture(mode mm.Mode, yield func()) fixture {
	h := dict.NewHash[int, int](2, mode, collide)
	h.SetYieldHook(yield)
	return fixture{
		d:      h,
		unhook: func() { h.SetYieldHook(nil) },
		check: func() error {
			b := h.Bucket(0)
			if err := b.List().CheckQuiescent(); err != nil {
				return err
			}
			return noTombstones(len(b.List().Items()), b.Len())
		},
		close:   h.Close,
		mem:     h.MemStats,
		manager: h.Bucket(0).List().Manager(),
	}
}

// skipFixture builds a skip list of the given height and tower seed.
func skipFixture(maxLevel int, seed uint64) func(mm.Mode, func()) fixture {
	return func(mode mm.Mode, yield func()) fixture {
		s := skiplist.New[int, int](mode, skiplist.WithMaxLevel(maxLevel), skiplist.WithSeed(seed))
		s.SetYieldHook(yield)
		return fixture{
			d:      s,
			unhook: func() { s.SetYieldHook(nil) },
			check: func() error {
				for i := 0; i < s.Levels(); i++ {
					if err := s.Level(i).CheckQuiescent(); err != nil {
						return fmt.Errorf("level %d: %w", i, err)
					}
					// No index cell outlives its bottom cell.
					items := s.Level(i).Items()
					for j := range items {
						if _, ok := s.Find(items[j].Key); !ok {
							return fmt.Errorf("level %d keeps a cell for deleted key %d", i, items[j].Key)
						}
					}
				}
				return noTombstones(len(s.Level(0).Items()), s.Len())
			},
			close:   s.Close,
			mem:     s.MemStats,
			manager: s.Level(0).Manager(),
		}
	}
}

func treeFixture(mode mm.Mode, yield func()) fixture {
	tr := buildTree(mode, yield)
	return fixture{
		d:       tr,
		unhook:  func() { tr.SetYieldHook(nil) },
		check:   tr.CheckQuiescent,
		close:   tr.Close,
		mem:     tr.MemStats,
		manager: tr.Manager(),
	}
}

func upsert(k, v int) func(*linearize.Session) {
	return func(s *linearize.Session) { s.Upsert(k, v) }
}

func insert(k, v int) func(*linearize.Session) {
	return func(s *linearize.Session) { s.Insert(k, v) }
}

func del(k int) func(*linearize.Session) {
	return func(s *linearize.Session) { s.Delete(k) }
}

func find(k int) func(*linearize.Session) {
	return func(s *linearize.Session) { s.Find(k) }
}

// seq runs ops one after another in one thread.
func seq(ops ...func(*linearize.Session)) func(*linearize.Session) {
	return func(s *linearize.Session) {
		for _, op := range ops {
			op(s)
		}
	}
}

// upsertFindDelete runs the Upsert ∥ Find ∥ Delete race on key 20 of a
// fixture holding keys. Three threads over the list's few yield points
// stay enumerable; the skip list and the tree yield at every level hop
// and every traversal hop, so there the race is split into the two
// pairs that carry it — Upsert ∥ Delete, and a lookup ∥ a Delete
// followed by a re-Upsert — which together cover every state a lookup
// can meet: the old value, the new one, the tombstoned cell, and the
// fresh cell.
func upsertFindDelete(t *testing.T, fresh func(mm.Mode, func()) fixture, keys []int, threeThreads bool) {
	probe := append([]int{20}, keys...)
	if threeThreads {
		exploreDict(t, dictScenario{fresh: fresh, keys: keys, threads: []func(*linearize.Session){upsert(20, 99), find(20), del(20)}, probe: probe})
		return
	}
	t.Run("upsert-delete", func(t *testing.T) {
		exploreDict(t, dictScenario{fresh: fresh, keys: keys, threads: []func(*linearize.Session){upsert(20, 99), del(20)}, probe: probe})
	})
	t.Run("find-delete-upsert", func(t *testing.T) {
		exploreDict(t, dictScenario{fresh: fresh, keys: keys, threads: []func(*linearize.Session){find(20), seq(del(20), upsert(20, 99))}, probe: probe})
	})
}

// TestExhaustiveUpsertFindDelete races an overwrite of a bound key
// against a lookup and a deletion of it: the lookup sees the old value,
// the new one, or — only after the tombstone — nothing, and the Upsert
// either replaces the value before the tombstone or inserts a fresh cell
// once the tombstoned one is unlinked (helping to unlink it).
func TestExhaustiveUpsertFindDelete(t *testing.T) {
	t.Run("list", func(t *testing.T) { upsertFindDelete(t, sortedListFixture, []int{10, 20, 30}, true) })
	t.Run("hash", func(t *testing.T) { upsertFindDelete(t, hashFixture, []int{10, 20, 7}, true) })
	// Key 20's tower spans both levels with this seed (see
	// TestExhaustiveSkipListInsertVsDelete): the Delete tears it down
	// while the Upsert may build a new one.
	t.Run("skiplist-tower", func(t *testing.T) { upsertFindDelete(t, skipFixture(2, 5), []int{10, 20}, false) })
	// On the tree, 20 is a leaf and then a cell with one child: deletions
	// any process can finish.
	t.Run("bst-leaf", func(t *testing.T) { upsertFindDelete(t, treeFixture, []int{20}, false) })
	t.Run("bst-one-child", func(t *testing.T) { upsertFindDelete(t, treeFixture, []int{20, 30}, false) })
	// A two-children deletion's subtree move is claimer-only and an
	// Upsert of that key waits for it, which no finite schedule space
	// contains; here the Upsert overwrites a key the Figure 14 move
	// relocates.
	t.Run("bst-two-children", func(t *testing.T) {
		exploreDict(t, dictScenario{fresh: treeFixture, keys: []int{2, 1, 3}, threads: []func(*linearize.Session){del(2), upsert(1, 99)}, probe: []int{1, 2, 3}})
	})
}

// TestExhaustiveUpsertUpsert races two Upserts of one key. When the key
// is bound, both are box swaps and the later one's value survives; when
// it is absent, one inserts and the other either loses the insertion
// Compare&Swap and then replaces, or replaces after the insertion. On
// the skip list the winner may still be building its two-level tower
// while the other runs.
func TestExhaustiveUpsertUpsert(t *testing.T) {
	ops := []func(*linearize.Session){upsert(20, 1), upsert(20, 2)}
	for _, c := range []struct {
		name  string
		fresh func(mm.Mode, func()) fixture
		keys  []int
	}{
		{"list-bound", sortedListFixture, []int{10, 20, 30}},
		{"list-absent", sortedListFixture, []int{10, 30}},
		{"hash-absent", hashFixture, []int{10, 30, 7}},
		// 20 draws the two-level tower as the second insertion.
		{"skiplist-bound-tower", skipFixture(2, 5), []int{10, 20}},
		{"skiplist-absent-half-built", skipFixture(2, 5), []int{10}},
		{"bst-bound", treeFixture, []int{10, 20, 30}},
		{"bst-absent", treeFixture, []int{10, 30}},
	} {
		t.Run(c.name, func(t *testing.T) {
			exploreDict(t, dictScenario{fresh: c.fresh, keys: c.keys, threads: ops, probe: append([]int{20}, c.keys...)})
		})
	}
}

// TestExhaustiveSkipListHalfBuiltTower races a deletion against an
// Upsert of an absent key while it builds a two-level tower, and a
// second Upsert against the deletion of the new cell: whichever cell the
// tombstone hits, no index cell may outlive it.
func TestExhaustiveSkipListHalfBuiltTower(t *testing.T) {
	t.Run("upsert-delete", func(t *testing.T) {
		exploreDict(t, dictScenario{fresh: skipFixture(2, 5), keys: []int{10}, threads: []func(*linearize.Session){upsert(20, 1), del(20)}, probe: []int{10, 20}})
	})
	t.Run("upsert-delete-upsert", func(t *testing.T) {
		exploreDict(t, dictScenario{fresh: skipFixture(2, 5), keys: []int{10}, threads: []func(*linearize.Session){upsert(20, 1), seq(del(20), upsert(20, 2))}, probe: []int{10, 20}})
	})
}

// TestExhaustiveInsertDeleteTombstoned races Figure 12's Insert, and a
// second Delete, against a Delete of the same key. In the schedules
// where the first Delete stops between its tombstone and its unlink, the
// others meet a cell that is tombstoned but still linked: the Insert
// must treat it as absent, help unlink it and insert a fresh cell, and
// the second Delete must report false; nothing may be left linked twice.
func TestExhaustiveInsertDeleteTombstoned(t *testing.T) {
	for _, c := range []struct {
		name  string
		fresh func(mm.Mode, func()) fixture
		keys  []int
	}{
		{"list", sortedListFixture, []int{10, 20, 30}},
		{"skiplist", skipFixture(2, 5), []int{10, 20}},
		{"bst", treeFixture, []int{10, 20}},
	} {
		t.Run(c.name+"/insert", func(t *testing.T) {
			exploreDict(t, dictScenario{fresh: c.fresh, keys: c.keys, threads: []func(*linearize.Session){del(20), insert(20, 99)}, probe: c.keys})
		})
		t.Run(c.name+"/delete", func(t *testing.T) {
			exploreDict(t, dictScenario{fresh: c.fresh, keys: c.keys, threads: []func(*linearize.Session){del(20), del(20)}, probe: c.keys})
		})
	}
}

// TestExhaustiveDeleteMinVsUpsertMin races DeleteMin against an Upsert
// of the minimum key. DeleteMin claims the minimum with the same
// tombstone Compare&Swap Delete linearizes at, so it returns the value
// the minimum held at that instant: the original one, after which the
// Upsert inserts a fresh cell, or the upserted one, after which the key
// is gone.
func TestExhaustiveDeleteMinVsUpsertMin(t *testing.T) {
	skipModes(t, func(t *testing.T, mode mm.Mode) {
		var s *skiplist.SkipList[int, int]
		var k, v int
		var ok bool
		build := func(yield func()) sched.Scenario {
			s = skiplist.New[int, int](mode, skiplist.WithMaxLevel(2), skiplist.WithSeed(5))
			s.Insert(10, 10)
			s.Insert(20, 20)
			s.SetYieldHook(yield)
			k, v, ok = 0, 0, false
			return sched.Scenario{
				Threads: []func(){
					func() { k, v, ok = s.DeleteMin() },
					func() { s.Upsert(10, 99) },
				},
				Check: func() error {
					s.SetYieldHook(nil)
					if !ok || k != 10 {
						return fmt.Errorf("DeleteMin = %d,%d,%v; want key 10", k, v, ok)
					}
					got, present := s.Find(10)
					switch v {
					case 10: // DeleteMin first: the Upsert re-inserts
						if !present || got != 99 {
							return fmt.Errorf("DeleteMin took 10=10 but Find(10) = %d,%v; want 99,true", got, present)
						}
					case 99: // Upsert first: DeleteMin takes its value
						if present {
							return fmt.Errorf("DeleteMin took 10=99 but Find(10) = %d,true", got)
						}
					default:
						return fmt.Errorf("DeleteMin returned value %d, never stored", v)
					}
					if got, present := s.Find(20); !present || got != 20 {
						return fmt.Errorf("bystander 20 = %d,%v", got, present)
					}
					for i := 0; i < s.Levels(); i++ {
						if err := s.Level(i).CheckQuiescent(); err != nil {
							return fmt.Errorf("level %d: %w", i, err)
						}
					}
					return noTombstones(len(s.Level(0).Items()), s.Len())
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
		t.Logf("skiplist DeleteMin vs Upsert(min): %d schedules, ≤%d decisions", res.Schedules, res.MaxDecisions)
	})
}
