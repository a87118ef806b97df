package workload

import (
	"sync"
	"testing"
	"time"

	"valois/internal/dict"
	"valois/internal/mm"
	"valois/internal/spinlock"
)

func TestMixValid(t *testing.T) {
	tests := []struct {
		mix  Mix
		want bool
	}{
		{Mixed(), true},
		{ReadMostly(), true},
		{UpdateHeavy(), true},
		{Mix{FindPct: 101, InsertPct: -1}, false},
		{Mix{FindPct: 30, InsertPct: 30, DeletePct: 30}, false},
	}
	for _, tt := range tests {
		if got := tt.mix.Valid(); got != tt.want {
			t.Errorf("Valid(%+v) = %v, want %v", tt.mix, got, tt.want)
		}
	}
}

func TestPrefillInsertsExactly(t *testing.T) {
	d := dict.NewSortedList[int, int](mm.ModeGC)
	cfg := Config{KeySpace: 256, Prefill: 100, Seed: 1}
	Prefill(cfg, d)
	if got := d.Len(); got != 100 {
		t.Fatalf("prefilled %d keys, want 100", got)
	}
}

func TestRunProducesWork(t *testing.T) {
	d := dict.NewSortedList[int, int](mm.ModeGC)
	cfg := Config{
		Goroutines: 4,
		Duration:   50 * time.Millisecond,
		Mix:        Mixed(),
		KeySpace:   64,
		Dist:       Uniform,
		Prefill:    32,
		Seed:       7,
	}
	Prefill(cfg, d)
	res := Run(cfg, d)
	if res.Ops == 0 {
		t.Fatal("run completed zero operations")
	}
	if res.Finds == 0 {
		t.Fatal("mixed run did no finds")
	}
	if res.OpsPerSec() <= 0 {
		t.Fatal("non-positive throughput")
	}
	// Population must equal prefill + successful inserts - deletes.
	if got, expect := d.Len(), cfg.Prefill+int(res.Inserts)-int(res.Deletes); got != expect {
		t.Fatalf("population = %d, want %d", got, expect)
	}
}

func TestRunOpsCountsExactly(t *testing.T) {
	d := dict.NewSortedList[int, int](mm.ModeGC)
	cfg := Config{Goroutines: 3, Mix: UpdateHeavy(), KeySpace: 32, Seed: 5}
	res := RunOps(cfg, 500, d)
	if res.Ops != 1500 {
		t.Fatalf("Ops = %d, want 1500", res.Ops)
	}
	if got, expect := d.Len(), int(res.Inserts)-int(res.Deletes); got != expect {
		t.Fatalf("population = %d, want %d", got, expect)
	}
}

func TestZipfianSkew(t *testing.T) {
	// Under Zipf, key 0 must be drawn far more often than under uniform;
	// verify indirectly through a counting dictionary.
	counts := &countingDict{counts: make(map[int]int)}
	cfg := Config{
		Goroutines: 1,
		Mix:        Mix{FindPct: 100},
		KeySpace:   1024,
		Dist:       Zipfian,
		Seed:       3,
	}
	RunOps(cfg, 5000, counts)
	zero := counts.counts[0]
	if zero < 5000/20 {
		t.Fatalf("Zipf drew key 0 only %d/5000 times; distribution looks uniform", zero)
	}
}

type countingDict struct {
	mu     sync.Mutex
	counts map[int]int
}

func (c *countingDict) Find(k int) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[k]++
	return 0, false
}
func (c *countingDict) Insert(k, v int) bool { return false }
func (c *countingDict) Upsert(k, v int)      {}
func (c *countingDict) Delete(k int) bool    { return false }

func TestDelayInstalledInsideLockedStructure(t *testing.T) {
	l := spinlock.NewLockedList[int, int](spinlock.NewLock("mutex"))
	cfg := Config{
		Goroutines: 2,
		Duration:   30 * time.Millisecond,
		Mix:        Mixed(),
		KeySpace:   16,
		Seed:       9,
		Delay:      DelaySpec{Every: 10, D: time.Millisecond},
	}
	res := Run(cfg, l)
	if res.Ops == 0 {
		t.Fatal("delayed run completed zero operations")
	}
	if l.Delay != nil {
		t.Fatal("delay hook not removed after the run")
	}
	// With a 1ms stall every 10 ops inside the critical section, two
	// goroutines for 30ms cannot complete more than ~600 ops; without the
	// delay they would do tens of thousands. Use a loose bound.
	if res.Ops > 5000 {
		t.Fatalf("ops = %d; the critical-section delay appears not to throttle", res.Ops)
	}
}
