package linearize

import (
	"math/rand"
	"sync"
	"testing"

	"valois/internal/bst"
	"valois/internal/dict"
	"valois/internal/mm"
	"valois/internal/skiplist"
)

// seqEvents builds a strictly sequential history from (op, ok, value)
// triples on one key.
func seqEvents(key int, steps ...Event) []Event {
	t := int64(0)
	out := make([]Event, 0, len(steps))
	for _, s := range steps {
		t++
		s.Key = key
		s.Start = t
		t++
		s.End = t
		out = append(out, s)
	}
	return out
}

func TestSequentialLegalHistories(t *testing.T) {
	tests := []struct {
		name   string
		events []Event
	}{
		{name: "empty", events: nil},
		{name: "insert-find-delete", events: seqEvents(1,
			Event{Op: OpInsert, Value: 10, OK: true},
			Event{Op: OpFind, Value: 10, OK: true},
			Event{Op: OpDelete, OK: true},
			Event{Op: OpFind, OK: false},
		)},
		{name: "failed-ops", events: seqEvents(2,
			Event{Op: OpDelete, OK: false},
			Event{Op: OpInsert, Value: 5, OK: true},
			Event{Op: OpInsert, Value: 6, OK: false},
			Event{Op: OpFind, Value: 5, OK: true},
		)},
		{name: "reinsert-new-value", events: seqEvents(3,
			Event{Op: OpInsert, Value: 1, OK: true},
			Event{Op: OpDelete, OK: true},
			Event{Op: OpInsert, Value: 2, OK: true},
			Event{Op: OpFind, Value: 2, OK: true},
		)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if res := Check(tt.events); !res.OK {
				t.Fatalf("legal history rejected: %v", res.BadHistory)
			}
		})
	}
}

func TestSequentialIllegalHistories(t *testing.T) {
	tests := []struct {
		name   string
		events []Event
	}{
		{name: "find-hit-on-absent", events: seqEvents(1,
			Event{Op: OpFind, Value: 9, OK: true},
		)},
		{name: "find-wrong-value", events: seqEvents(1,
			Event{Op: OpInsert, Value: 10, OK: true},
			Event{Op: OpFind, Value: 11, OK: true},
		)},
		{name: "double-successful-insert", events: seqEvents(1,
			Event{Op: OpInsert, Value: 1, OK: true},
			Event{Op: OpInsert, Value: 2, OK: true},
		)},
		{name: "delete-succeeds-on-absent", events: seqEvents(1,
			Event{Op: OpDelete, OK: true},
		)},
		{name: "failed-insert-on-absent", events: seqEvents(1,
			Event{Op: OpInsert, Value: 1, OK: false},
		)},
		{name: "failed-delete-on-present", events: seqEvents(1,
			Event{Op: OpInsert, Value: 1, OK: true},
			Event{Op: OpDelete, OK: false},
		)},
		{name: "find-miss-while-present", events: seqEvents(1,
			Event{Op: OpInsert, Value: 1, OK: true},
			Event{Op: OpFind, OK: false},
		)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if res := Check(tt.events); res.OK {
				t.Fatal("illegal history accepted")
			}
		})
	}
}

func TestConcurrentOverlapUsesFlexibility(t *testing.T) {
	// Two overlapping operations: a Find that misses, concurrent with the
	// Insert that succeeds. Legal only because the Find may linearize
	// before the Insert within their overlap.
	events := []Event{
		{Op: OpInsert, Key: 1, Value: 7, OK: true, Start: 1, End: 4},
		{Op: OpFind, Key: 1, OK: false, Start: 2, End: 3},
	}
	if res := Check(events); !res.OK {
		t.Fatal("overlapping find-miss + insert rejected")
	}
	// But if the Find strictly follows the Insert, the miss is illegal.
	events = []Event{
		{Op: OpInsert, Key: 1, Value: 7, OK: true, Start: 1, End: 2},
		{Op: OpFind, Key: 1, OK: false, Start: 3, End: 4},
	}
	if res := Check(events); res.OK {
		t.Fatal("find-miss after completed insert accepted")
	}
}

func TestRealTimeOrderRespected(t *testing.T) {
	// Insert completes, then delete completes, then a find hit: legal.
	// The same find hit moved before the delete's invocation: still legal
	// (value present). A find hit strictly after the delete: illegal.
	events := []Event{
		{Op: OpInsert, Key: 1, Value: 7, OK: true, Start: 1, End: 2},
		{Op: OpDelete, Key: 1, OK: true, Start: 3, End: 4},
		{Op: OpFind, Key: 1, Value: 7, OK: true, Start: 5, End: 6},
	}
	if res := Check(events); res.OK {
		t.Fatal("find hit after completed delete accepted")
	}
	// Overlapping with the delete: legal (may linearize before it).
	events[2].Start, events[2].End = 3, 6
	events[1].Start, events[1].End = 3, 5
	if res := Check(events); !res.OK {
		t.Fatal("find hit overlapping delete rejected")
	}
}

// faultyDict drops every dropNth successful insert: it reports true but
// stores nothing — a classic lost-update bug the checker must catch.
type faultyDict struct {
	mu      sync.Mutex
	m       map[int]int
	calls   int
	dropNth int
}

func (f *faultyDict) Find(k int) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.m[k]
	return v, ok
}

func (f *faultyDict) Insert(k, v int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.m[k]; ok {
		return false
	}
	f.calls++
	if f.calls%f.dropNth == 0 {
		return true // lie: claim success without storing
	}
	f.m[k] = v
	return true
}

func (f *faultyDict) Upsert(k, v int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.m[k] = v
}

func (f *faultyDict) Delete(k int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.m[k]; !ok {
		return false
	}
	delete(f.m, k)
	return true
}

func TestCheckerCatchesLostUpdates(t *testing.T) {
	r := NewRecorder(&faultyDict{m: make(map[int]int), dropNth: 5})
	s := r.Session()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		k := rng.Intn(8)
		switch rng.Intn(3) {
		case 0:
			s.Insert(k, i)
		case 1:
			s.Delete(k)
		default:
			s.Find(k)
		}
	}
	res := Check(r.History())
	if res.OK {
		t.Fatal("checker passed a dictionary that drops inserts")
	}
	if len(res.BadHistory) == 0 {
		t.Fatal("failure did not report the offending subhistory")
	}
}

// checkStructure runs a concurrent recorded workload against d and checks
// linearizability.
func checkStructure(t *testing.T, name string, d dict.Dictionary[int, int]) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		r := NewRecorder(d)
		const (
			goroutines = 6
			perG       = 250
			keys       = 64
		)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				s := r.Session()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < perG; i++ {
					k := rng.Intn(keys)
					switch rng.Intn(4) {
					case 0:
						s.Insert(k, int(seed)*10_000+i)
					case 1:
						s.Delete(k)
					default:
						s.Find(k)
					}
				}
			}(int64(g + 1))
		}
		wg.Wait()
		history := r.History()
		if len(history) != goroutines*perG {
			t.Fatalf("recorded %d events, want %d", len(history), goroutines*perG)
		}
		if res := Check(history); !res.OK {
			t.Fatalf("history not linearizable at key %d:\n%v", res.BadKey, res.BadHistory)
		}
	})
}

// TestPaperStructuresAreLinearizable is the empirical stand-in for the
// proofs §2.1 leaves out: every structure, under both memory managers,
// with torture-forced interleavings where supported.
func TestPaperStructuresAreLinearizable(t *testing.T) {
	for _, mode := range []mm.Mode{mm.ModeGC, mm.ModeRC} {
		sl := dict.NewSortedList[int, int](mode)
		sl.EnableTorture(3)
		checkStructure(t, "sortedlist/"+mode.String(), sl)

		h := dict.NewHash[int, int](8, mode, dict.HashInt)
		h.EnableTorture(3)
		checkStructure(t, "hash/"+mode.String(), h)

		checkStructure(t, "skiplist/"+mode.String(), skiplist.New[int, int](mode))
		checkStructure(t, "bst/"+mode.String(), bst.New[int, int](mode))
	}
}
