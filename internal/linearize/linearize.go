// Package linearize tests the linearizability the paper asserts but does
// not prove: "We also require our objects to be linearizable [14]; this
// implies that operations appear to happen atomically at some point
// during their execution. Proofs that our data structures are
// linearizable are beyond the scope of this paper, but are
// straightforward." (§2.1)
//
// The package records complete concurrent histories of dictionary
// operations — each with an invocation and a response timestamp from a
// shared atomic clock — and then checks, in the style of Wing & Gong's
// algorithm with Lowe's memoization, whether some sequential order of the
// operations (a) respects real-time precedence (if op A responded before
// op B was invoked, A comes first) and (b) is legal for the sequential
// dictionary specification.
//
// Dictionary operations on distinct keys commute, so the checker uses the
// standard decomposition: a history is linearizable if and only if each
// per-key subhistory is linearizable against the single-key specification
// (absent | present(v); Insert succeeds iff absent, Upsert always
// succeeds and binds, Delete succeeds iff present, Find returns the
// current binding). Per-key subhistories stay
// small, keeping the exponential search tractable.
package linearize

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"valois/internal/dict"
)

// Op identifies a dictionary operation kind.
type Op uint8

// Operation kinds.
const (
	OpFind Op = iota + 1
	OpInsert
	OpDelete
	OpUpsert
)

// String returns the operation's name.
func (o Op) String() string {
	switch o {
	case OpFind:
		return "find"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpUpsert:
		return "upsert"
	default:
		return "invalid"
	}
}

// Event is one operation in a history.
type Event struct {
	Op    Op
	Key   int
	Value int  // argument of Insert/Upsert; result of a successful Find
	OK    bool // Insert/Delete success, Find hit; always true for Upsert
	Start int64
	End   int64
	// Lost marks an operation whose invocation was observed but whose
	// response never arrived (the connection died or timed out before
	// the reply). The server may or may not have executed it, so the
	// checker must accept histories where it took effect at any point
	// after Start and histories where it never ran at all. OK, Value
	// (for Find), and End are meaningless on a lost event.
	Lost bool
}

func (e Event) String() string {
	if e.Lost {
		return fmt.Sprintf("%s(%d)=LOST,%d [%d,?]", e.Op, e.Key, e.Value, e.Start)
	}
	return fmt.Sprintf("%s(%d)=%v,%d [%d,%d]", e.Op, e.Key, e.OK, e.Value, e.Start, e.End)
}

// Recorder wraps a dictionary and records a history of the operations
// performed through it. It is safe for concurrent use; each goroutine
// should obtain its own Session to avoid contending on one buffer.
type Recorder struct {
	d     dict.Dictionary[int, int]
	clock atomic.Int64

	mu       sync.Mutex
	sessions []*Session
}

// NewRecorder wraps d.
func NewRecorder(d dict.Dictionary[int, int]) *Recorder {
	return &Recorder{d: d}
}

// Session is a per-goroutine event buffer with the Dictionary interface.
type Session struct {
	r      *Recorder
	events []Event
}

var _ dict.Dictionary[int, int] = (*Session)(nil)

// Session returns a recording handle for one goroutine.
func (r *Recorder) Session() *Session {
	s := &Session{r: r}
	r.mu.Lock()
	r.sessions = append(r.sessions, s)
	r.mu.Unlock()
	return s
}

// Find performs and records a Find.
func (s *Session) Find(key int) (int, bool) {
	start := s.r.clock.Add(1)
	v, ok := s.r.d.Find(key)
	end := s.r.clock.Add(1)
	s.events = append(s.events, Event{Op: OpFind, Key: key, Value: v, OK: ok, Start: start, End: end})
	return v, ok
}

// Insert performs and records an Insert.
func (s *Session) Insert(key, value int) bool {
	start := s.r.clock.Add(1)
	ok := s.r.d.Insert(key, value)
	end := s.r.clock.Add(1)
	s.events = append(s.events, Event{Op: OpInsert, Key: key, Value: value, OK: ok, Start: start, End: end})
	return ok
}

// Upsert performs and records an Upsert.
func (s *Session) Upsert(key, value int) {
	start := s.r.clock.Add(1)
	s.r.d.Upsert(key, value)
	end := s.r.clock.Add(1)
	s.events = append(s.events, Event{Op: OpUpsert, Key: key, Value: value, OK: true, Start: start, End: end})
}

// Delete performs and records a Delete.
func (s *Session) Delete(key int) bool {
	start := s.r.clock.Add(1)
	ok := s.r.d.Delete(key)
	end := s.r.clock.Add(1)
	s.events = append(s.events, Event{Op: OpDelete, Key: key, OK: ok, Start: start, End: end})
	return ok
}

// History returns all recorded events. Call only at quiescence.
func (r *Recorder) History() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var all []Event
	for _, s := range r.sessions {
		all = append(all, s.events...)
	}
	return all
}

// Result reports the outcome of a linearizability check.
type Result struct {
	// OK reports whether the whole history is linearizable.
	OK bool
	// BadKey is the key whose subhistory failed, when OK is false.
	BadKey int
	// BadHistory is that subhistory, sorted by invocation time.
	BadHistory []Event
}

// Check verifies the history against the sequential dictionary
// specification (Insert refuses duplicates), per key. An empty history
// is linearizable.
func Check(history []Event) Result {
	return checkHistory(history, keyState.apply)
}

// checkHistory runs the per-key decomposition under the given
// single-key sequential specification.
func checkHistory(history []Event, apply func(keyState, Event) (keyState, bool)) Result {
	byKey := make(map[int][]Event)
	for _, e := range history {
		byKey[e.Key] = append(byKey[e.Key], e)
	}
	keys := make([]int, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Ints(keys) // deterministic failure reporting
	for _, k := range keys {
		sub := byKey[k]
		sort.Slice(sub, func(i, j int) bool { return sub[i].Start < sub[j].Start })
		if !checkKey(sub, apply) {
			return Result{BadKey: k, BadHistory: sub}
		}
	}
	return Result{OK: true}
}

// keyState is the sequential single-key specification state.
type keyState struct {
	present bool
	value   int
}

// apply returns the post-state if e is legal in state st, or ok=false.
func (st keyState) apply(e Event) (keyState, bool) {
	if e.Lost {
		// No response to honor: the effect at this linearization point
		// is whatever the operation would deterministically do here.
		return st.applyLost(e)
	}
	switch e.Op {
	case OpFind:
		if e.OK != st.present {
			return st, false
		}
		if st.present && e.Value != st.value {
			return st, false
		}
		return st, true
	case OpInsert:
		if e.OK {
			if st.present {
				return st, false
			}
			return keyState{present: true, value: e.Value}, true
		}
		if !st.present {
			return st, false // failed insert while absent is illegal
		}
		return st, true
	case OpUpsert:
		if !e.OK {
			return st, false // an Upsert never fails
		}
		return keyState{present: true, value: e.Value}, true
	case OpDelete:
		if e.OK {
			if !st.present {
				return st, false
			}
			return keyState{}, true
		}
		if st.present {
			return st, false // failed delete while present is illegal
		}
		return st, true
	default:
		return st, false
	}
}

// applyLost is the Lost arm shared by both specifications: a lost
// Find has no effect; a lost Insert/Delete does whatever that operation
// would do in state st, with no reported result to contradict.
func (st keyState) applyLost(e Event) (keyState, bool) {
	switch e.Op {
	case OpFind:
		return st, true
	case OpInsert:
		if st.present {
			return st, true // dict Insert refuses duplicates; no effect
		}
		return keyState{present: true, value: e.Value}, true
	case OpUpsert:
		return keyState{present: true, value: e.Value}, true
	case OpDelete:
		if !st.present {
			return st, true
		}
		return keyState{}, true
	default:
		return st, false
	}
}

// checkKey runs the Wing-Gong search with memoization over one key's
// subhistory (events sorted by Start), under the given sequential
// specification. Lost operations (Event.Lost) have no response: they
// never constrain the real-time order (their End is treated as +inf)
// and the search may either linearize them at some point after their
// invocation or decide they never executed — the history is accepted
// once every completed operation is linearized.
func checkKey(events []Event, apply func(keyState, Event) (keyState, bool)) bool {
	n := len(events)
	if n == 0 {
		return true
	}
	if n > 63 {
		// The bitmask memoization caps at 63 events per key; histories
		// should be generated below that (the tests are).
		panic("linearize: per-key history too large")
	}
	// required is the mask of completed operations: the search succeeds
	// when all of them are linearized, whatever subset of lost
	// operations was taken along the way.
	var required uint64
	for i, e := range events {
		if !e.Lost {
			required |= 1 << i
		}
	}
	type memoKey struct {
		done    uint64
		present bool
		value   int
	}
	seen := make(map[memoKey]bool)

	var dfs func(done uint64, st keyState) bool
	dfs = func(done uint64, st keyState) bool {
		if done&required == required {
			return true
		}
		mk := memoKey{done: done, present: st.present, value: st.value}
		if seen[mk] {
			return false
		}
		seen[mk] = true

		// The earliest response among not-yet-linearized operations
		// bounds which operations may linearize next: an operation can
		// only be chosen if it was invoked before every pending
		// operation's response (otherwise some completed operation would
		// be ordered after an operation that started after it ended).
		// Lost operations have no response and impose no bound.
		minEnd := int64(1) << 62
		for i := 0; i < n; i++ {
			if done&(1<<i) == 0 && !events[i].Lost && events[i].End < minEnd {
				minEnd = events[i].End
			}
		}
		for i := 0; i < n; i++ {
			if done&(1<<i) != 0 {
				continue
			}
			e := events[i]
			if e.Start > minEnd {
				// e began after a pending operation finished; that
				// operation must linearize first. Events are sorted by
				// Start, so no later candidate qualifies either.
				break
			}
			if next, ok := apply(st, e); ok {
				if dfs(done|uint64(1)<<i, next) {
					return true
				}
			}
		}
		return false
	}
	return dfs(0, keyState{})
}
