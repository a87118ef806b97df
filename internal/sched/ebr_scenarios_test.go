package sched_test

import (
	"fmt"
	"testing"

	"valois/internal/core"
	"valois/internal/mm"
	"valois/internal/sched"
	"valois/internal/skiplist"
)

// These scenarios turn the epoch-based reclamation protocol's safety
// argument into exhaustive checks. The dangerous windows are not the
// structural Compare&Swaps (those are covered by the Figure 2/3 scenarios,
// which now also run under ebr) but the epoch transitions: a cell retired
// while a reader is pinned must stay out of the free list until that pin
// is gone, no matter how retirements, advancement attempts, and the
// reader's own hops interleave. Reuse of a wrongly-freed cell is made
// observable by having writers insert fresh keys after forcing
// advancement: if the pinned reader's cell were recycled, the reader's
// parked position would suddenly carry the new key (or a corrupted kind),
// and the item/contents checks below would see it.

// ebrCheck drains and leak-checks an EBR-managed list once all pins are
// released.
func ebrCheck(m *mm.EBR[int], l *core.List[int], cursors []*core.Cursor[int], want []int) error {
	for _, c := range cursors {
		c.Close()
	}
	got := l.Items()
	if len(got) != len(want) {
		return fmt.Errorf("items = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("items = %v, want %v", got, want)
		}
	}
	if err := l.CheckQuiescent(); err != nil {
		return err
	}
	l.Close()
	if !m.Quiesce() {
		return fmt.Errorf("ebr limbo did not drain: %d cells", m.LimboLen())
	}
	if live := m.Stats().Live(); live != 0 {
		return fmt.Errorf("live cells after Close+Quiesce = %d, want 0", live)
	}
	return nil
}

// TestExhaustiveEBRPinnedReaderBlocksReclaim explores a reader pinned in
// epoch e against a writer that retires the reader's cell in e and then
// tries as hard as it can to get it recycled: delete, repeated forced
// advancement, and a fresh insertion that would pop a wrongly-freed cell
// off the free list. Under every interleaving the reader's parked cell
// must still read as its original item.
func TestExhaustiveEBRPinnedReaderBlocksReclaim(t *testing.T) {
	var m *mm.EBR[int]
	var l *core.List[int]
	var cursors []*core.Cursor[int]
	build := func(yield func()) sched.Scenario {
		m = mm.NewEBR[int]()
		m.SetYieldHook(yield) // interleave at epoch-advancement windows too
		l, cursors = listFixture(m, yield, []int{10, 20, 30}, []int{20, 20})
		reader, writer := cursors[0], cursors[1]
		return sched.Scenario{
			Threads: []func(){
				func() { // pinned since fixture time; parked on 20
					yield()
					if got := reader.Item(); got != 20 {
						panic(fmt.Sprintf("pinned reader's cell corrupted: item = %d, want 20", got))
					}
					yield()
					// The deleted cell's next pointer must also have
					// survived: walk off it onto the live list.
					for !reader.End() {
						if k := reader.Item(); k != 10 && k != 20 && k != 30 && k != 40 {
							panic(fmt.Sprintf("reader walked onto corrupted cell %d", k))
						}
						if !reader.Next() {
							break
						}
					}
				},
				func() {
					deleteKey(writer, 20) // retires cells in the reader's epoch
					for i := 0; i < 4; i++ {
						m.ForceAdvance() // must stall against the reader's pin
					}
					// A recycled cell would surface here as the new 40.
					for !writer.End() && writer.Item() < 40 {
						writer.Next()
					}
					insertSorted(l, writer, 40)
				},
			},
			Check: func() error {
				return ebrCheck(m, l, cursors, []int{10, 30, 40})
			},
		}
	}
	res, err := sched.Explore(sched.Options{MaxSchedules: 500_000}, build)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("exploration truncated; raise the cap")
	}
	t.Logf("pinned reader vs retire+advance: %d schedules, ≤%d decisions", res.Schedules, res.MaxDecisions)
	if res.Schedules < 3 {
		t.Fatalf("only %d schedules explored; yield points not firing", res.Schedules)
	}
}

// TestExhaustiveEBRUnpinTriggersDrain explores the release half of the
// protocol: whatever order the reader's unpin and the writer's forced
// advancements land in, once both threads are done a quiesce must drain
// every retired cell — the pin may defer reclamation but never wedge it.
func TestExhaustiveEBRUnpinTriggersDrain(t *testing.T) {
	var m *mm.EBR[int]
	var l *core.List[int]
	var cursors []*core.Cursor[int]
	var reclaimedEarly int64
	build := func(yield func()) sched.Scenario {
		m = mm.NewEBR[int]()
		m.SetYieldHook(yield) // interleave at epoch-advancement windows too
		l, cursors = listFixture(m, yield, []int{10, 20, 30}, []int{20, 20})
		reader, writer := cursors[0], cursors[1]
		reclaimedEarly = -1
		return sched.Scenario{
			Threads: []func(){
				func() {
					yield()
					if got := reader.Item(); got != 20 {
						panic(fmt.Sprintf("pinned reader's cell corrupted: item = %d", got))
					}
					reader.Close() // unpin: from here reclamation may proceed
					yield()
				},
				func() {
					deleteKey(writer, 20)
					writer.Close() // the writer's own pin must not wedge things
					yield()
					for i := 0; i < 8; i++ {
						m.ForceAdvance()
					}
					reclaimedEarly = m.Stats().Reclaims
				},
			},
			Check: func() error {
				// Both cursors are already closed; drain and leak-check.
				if err := ebrCheck(m, l, nil, []int{10, 30}); err != nil {
					return err
				}
				if m.Stats().Reclaims < reclaimedEarly {
					return fmt.Errorf("reclaim counter went backwards")
				}
				return nil
			},
		}
	}
	res, err := sched.Explore(sched.Options{MaxSchedules: 500_000}, build)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("exploration truncated; raise the cap")
	}
	t.Logf("unpin drains: %d schedules, ≤%d decisions", res.Schedules, res.MaxDecisions)
}

// TestExhaustiveEBRTwoWritersDifferentEpochs explores two writers whose
// retirements can land in different epochs (each forces advancement after
// its delete) against a reader pinned across both. The union of the two
// grace periods must cover the reader: neither deleted cell — nor the
// auxiliary nodes between them, which the reader's frozen path runs
// through — may be freed while the reader can still reach them.
func TestExhaustiveEBRTwoWritersDifferentEpochs(t *testing.T) {
	var m *mm.EBR[int]
	var l *core.List[int]
	var cursors []*core.Cursor[int]
	build := func(yield func()) sched.Scenario {
		m = mm.NewEBR[int]()
		m.SetYieldHook(yield) // interleave at epoch-advancement windows too
		l, cursors = listFixture(m, yield, []int{10, 20, 30, 40}, []int{20, 20, 30})
		reader, w1, w2 := cursors[0], cursors[1], cursors[2]
		return sched.Scenario{
			Threads: []func(){
				func() { // pinned across both writers' epochs
					yield()
					if got := reader.Item(); got != 20 {
						panic(fmt.Sprintf("reader's first cell corrupted: item = %d", got))
					}
					yield()
					// Walk the frozen path 20 → 30 → live tail. Both cells
					// may be deleted by now but must remain intact: every
					// key read must be one that was ever in the list (the
					// raw-cursor sweep is not guaranteed monotonic when an
					// adjacent region is deleted — see core's package doc —
					// but a recycled or corrupted cell would read as
					// something outside this set or trip the kind checks).
					for !reader.End() {
						switch reader.Item() {
						case 10, 20, 30, 40, 50:
						default:
							panic(fmt.Sprintf("reader walked onto corrupted cell %d", reader.Item()))
						}
						if !reader.Next() {
							break
						}
					}
				},
				func() {
					deleteKey(w1, 20)
					m.ForceAdvance() // push w2's retirement into a later epoch
					for !w1.End() && w1.Item() < 50 {
						w1.Next()
					}
					insertSorted(l, w1, 50) // would reuse a wrongly-freed cell
				},
				func() {
					deleteKey(w2, 30)
					m.ForceAdvance()
				},
			},
			Check: func() error {
				return ebrCheck(m, l, cursors, []int{10, 40, 50})
			},
		}
	}
	res, err := sched.Explore(sched.Options{MaxSchedules: 2_000_000}, build)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("exploration truncated; raise the cap")
	}
	t.Logf("two writers, pinned reader: %d schedules, ≤%d decisions", res.Schedules, res.MaxDecisions)
}

// TestExhaustiveEBRSkipListPinnedDescent explores the one-pin-per-operation
// rule of the skip list: a Find pins once and carries raw, uncounted
// pointers from level to level (the predecessor it stopped behind and that
// cell's Down pointer), while a Delete tears down exactly that predecessor
// tower and forces epoch advancement, and an Insert allocates — from the
// free list, so a tower cell freed too early would come back as the new
// key. Find(30) descends through 20's tower; if the cell it resumes from
// on the bottom level had been recycled into key 40 it would stop there
// and miss 30, which never leaves the structure.
func TestExhaustiveEBRSkipListPinnedDescent(t *testing.T) {
	var s *skiplist.SkipList[int, int]
	var found, deleted, inserted bool
	var value int
	recycled := 0 // schedules in which the Insert ran after cells were reclaimed
	build := func(yield func()) sched.Scenario {
		// The free list is a single LIFO: a freed cell is the very next
		// one allocated. The seed gives 20 a two-level tower.
		s = skiplist.New[int, int](mm.ModeEBR, skiplist.WithMaxLevel(2), skiplist.WithSeed(5))
		s.Insert(10, 10)
		s.Insert(20, 20)
		s.Insert(30, 30)
		if top := s.Level(1).Len(); top != 1 {
			panic(fmt.Sprintf("fixture: %d index cells on level 1, want only 20's", top))
		}
		if _, ok := s.Find(20); !ok {
			panic("fixture: 20 missing")
		}
		q := s.Level(0).Manager().(mm.Quiescer)
		s.SetYieldHook(yield)
		found, deleted, inserted, value = false, false, false, 0
		return sched.Scenario{
			Threads: []func(){
				func() { value, found = s.Find(30) },
				func() {
					deleted = s.Delete(20)
					// The tower's bottom cell is retired only once the
					// index cell holding its Down reference is freed, and
					// freed two advancements after that.
					for i := 0; i < 8; i++ {
						q.ForceAdvance()
					}
				},
				func() {
					if s.MemStats().Reclaims > 0 {
						recycled++
					}
					inserted = s.Insert(40, 40)
				},
			},
			Check: func() error {
				s.SetYieldHook(nil)
				if !found || value != 30 {
					return fmt.Errorf("Find(30) = %d, %v: the pinned descent lost a key that never left", value, found)
				}
				if !deleted || !inserted {
					return fmt.Errorf("Delete(20) = %v, Insert(40) = %v, want both true", deleted, inserted)
				}
				for k, want := range map[int]bool{10: true, 20: false, 30: true, 40: true} {
					if v, ok := s.Find(k); ok != want || (ok && v != k) {
						return fmt.Errorf("Find(%d) = %d, %v; want present=%v", k, v, ok, want)
					}
				}
				for i := 0; i < s.Levels(); i++ {
					if err := s.Level(i).CheckQuiescent(); err != nil {
						return fmt.Errorf("level %d: %w", i, err)
					}
				}
				s.Close()
				if !q.Quiesce() {
					return fmt.Errorf("ebr limbo did not drain: %d cells", q.LimboLen())
				}
				if live := s.MemStats().Live(); live != 0 {
					return fmt.Errorf("live cells after Close+Quiesce = %d, want 0", live)
				}
				return nil
			},
		}
	}
	res, err := sched.Explore(sched.Options{MaxSchedules: 2_000_000}, build)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("exploration truncated; raise the cap")
	}
	t.Logf("pinned descent vs tower delete vs recycling insert: %d schedules, ≤%d decisions, %d with reclaimed cells before the Insert",
		res.Schedules, res.MaxDecisions, recycled)
	if recycled == 0 {
		t.Fatal("no schedule reclaimed a cell before the Insert; the scenario does not exercise recycling")
	}
}
