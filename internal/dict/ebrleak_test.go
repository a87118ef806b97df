package dict_test

import (
	"runtime"
	"testing"
	"time"

	"valois/internal/bst"
	"valois/internal/dict"
	"valois/internal/mm"
	"valois/internal/skiplist"
	"valois/internal/testenv"
	"valois/internal/workload"
)

// These are the mode=ebr leak-accounting regressions: a mixed workload
// churns each of the four dictionaries, then — at quiescence — limbo must
// drain completely and the manager's live-cell count must equal exactly
// what the surviving keys account for. Deferred reclamation makes "a few
// cells still in limbo" look harmless; these tests pin down that the lag
// is bounded by the grace periods and not a slow leak.

// ebrManager pulls the deferred-reclamation surface out of a structure's
// manager (whose item type parameter is unexported for the skip list and
// the tree — hence the interface assertion).
func ebrManager(t *testing.T, m any) mm.Quiescer {
	t.Helper()
	q, ok := m.(mm.Quiescer)
	if !ok {
		t.Fatalf("manager %T does not implement mm.Quiescer", m)
	}
	return q
}

// churnEBR runs the VALOIS_STRESS_DIV-scaled mixed workload against d.
func churnEBR(d dict.Dictionary[int, int]) workload.Config {
	cfg := workload.Config{
		Goroutines: 4,
		Duration:   testenv.Duration(400 * time.Millisecond),
		Mix:        workload.Mixed(),
		KeySpace:   128,
		Prefill:    64,
		Seed:       42,
	}
	workload.Prefill(cfg, d)
	workload.Run(cfg, d)
	return cfg
}

// surviving counts the keys present at quiescence.
func surviving(d dict.Dictionary[int, int], keySpace int) int64 {
	n := int64(0)
	for k := 0; k < keySpace; k++ {
		if _, ok := d.Find(k); ok {
			n++
		}
	}
	return n
}

// drainAndCheck quiesces the manager and verifies the exact live-cell
// accounting: wantLive cells for the surviving keys plus skeleton, then
// zero after closing the structure.
func drainAndCheck(t *testing.T, q mm.Quiescer, stats func() mm.Stats, wantLive int64, close func()) {
	t.Helper()
	q.ForceAdvance() // cover the explicit force-advance path, then drain
	if !q.Quiesce() {
		t.Fatalf("limbo did not drain: %d cells, epoch %d", q.LimboLen(), q.Epoch())
	}
	if got := q.LimboLen(); got != 0 {
		t.Fatalf("limbo = %d after Quiesce, want 0", got)
	}
	s := stats()
	if got := s.Live(); got != wantLive {
		t.Fatalf("live cells = %d, want %d (allocs %d, reclaims %d)", got, wantLive, s.Allocs, s.Reclaims)
	}
	close()
	if !q.Quiesce() {
		t.Fatalf("limbo did not drain after Close: %d cells", q.LimboLen())
	}
	if got := stats().Live(); got != 0 {
		t.Fatalf("live cells after Close+Quiesce = %d, want 0 — leaked", got)
	}
}

// checkGoroutines fails the test if the workload's goroutines outlive it.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

func TestEBRLeakAccountingSortedList(t *testing.T) {
	base := runtime.NumGoroutine()
	s := dict.NewSortedList[int, int](mm.ModeEBR)
	cfg := churnEBR(s)
	q := ebrManager(t, s.List().Manager())
	n := surviving(s, cfg.KeySpace)
	// Skeleton: First, Last, head aux = 3; each key: cell + aux = 2.
	drainAndCheck(t, q, s.MemStats, 3+2*n, s.Close)
	checkGoroutines(t, base)
}

func TestEBRLeakAccountingHash(t *testing.T) {
	base := runtime.NumGoroutine()
	const buckets = 8
	h := dict.NewHash[int, int](buckets, mm.ModeEBR, dict.HashInt)
	cfg := churnEBR(h)
	n := surviving(h, cfg.KeySpace)
	// The buckets share one manager (any bucket's handle reaches it):
	// per-bucket skeleton of 3 plus 2 cells per key.
	q := ebrManager(t, h.Bucket(0).List().Manager())
	drainAndCheck(t, q, h.MemStats, int64(3*buckets)+2*n, h.Close)
	checkGoroutines(t, base)
}

func TestEBRLeakAccountingSkipList(t *testing.T) {
	base := runtime.NumGoroutine()
	s := skiplist.New[int, int](mm.ModeEBR, skiplist.WithMaxLevel(4))
	churnEBR(s)
	q := ebrManager(t, s.Level(0).Manager())
	// Tower heights are randomized, so the exact constant is computed from
	// the per-level populations: every level is a list (skeleton 3) and
	// every tower node is cell + aux = 2. Counting is itself a cursor
	// traversal, and traversal helps — it collapses aux chains and excises
	// deleted cells left behind by the churn, retiring more cells after
	// the drain. Iterate traverse→drain until the accounting stabilizes.
	var want, got int64
	for attempt := 0; ; attempt++ {
		want = 0
		for i := 0; i < s.Levels(); i++ {
			want += 3 + 2*int64(s.Level(i).Len())
		}
		q.ForceAdvance()
		if !q.Quiesce() {
			t.Fatalf("limbo did not drain: %d cells", q.LimboLen())
		}
		got = s.MemStats().Live()
		if got == want {
			break
		}
		if attempt >= 50 {
			t.Fatalf("live cells = %d, want %d from per-level populations (stuck after %d traverse+drain rounds)", got, want, attempt)
		}
	}
	s.Close()
	if !q.Quiesce() {
		t.Fatalf("limbo did not drain after Close: %d cells", q.LimboLen())
	}
	if got := s.MemStats().Live(); got != 0 {
		t.Fatalf("live cells after Close+Quiesce = %d, want 0 — leaked", got)
	}
	checkGoroutines(t, base)
}

func TestEBRLeakAccountingBST(t *testing.T) {
	base := runtime.NumGoroutine()
	tr := bst.New[int, int](mm.ModeEBR)
	cfg := churnEBR(tr)
	q := ebrManager(t, tr.Manager())
	n := surviving(tr, cfg.KeySpace)
	// Tree deletions leave the deleted cell's auxiliary nodes behind as
	// connective chains, so there is no per-key live-cell formula; the
	// exact accounting is reachability: every cell the manager considers
	// live must be reachable from the root. A floor of root aux + empty
	// sentinel + (cell + two side auxiliaries) per key still holds.
	want := int64(tr.NodeCount())
	if floor := 2 + 3*n; want < floor {
		t.Fatalf("reachable nodes = %d, below the structural floor %d for %d keys", want, floor, n)
	}
	drainAndCheck(t, q, tr.MemStats, want, tr.Close)
	checkGoroutines(t, base)
}
