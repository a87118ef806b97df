// Package workload generates the synthetic workloads the experiment suite
// (DESIGN.md, E1–E7) runs against the dictionary structures: key
// distributions, operation mixes, delay injection that models the
// unpredictable process delays of §1 (page faults, multitasking
// preemption), and a timed multi-goroutine runner that reports throughput.
package workload

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"valois/internal/dict"
)

// Mix is an operation mix in percent; the three fields must sum to 100.
type Mix struct {
	FindPct   int
	InsertPct int
	DeletePct int
}

// Valid reports whether the mix sums to 100 with no negative entries.
func (m Mix) Valid() bool {
	return m.FindPct >= 0 && m.InsertPct >= 0 && m.DeletePct >= 0 &&
		m.FindPct+m.InsertPct+m.DeletePct == 100
}

// ReadMostly is 90% finds and 5% each inserts and deletes.
func ReadMostly() Mix { return Mix{FindPct: 90, InsertPct: 5, DeletePct: 5} }

// Mixed is the 50/25/25 find/insert/delete mix used by E1.
func Mixed() Mix { return Mix{FindPct: 50, InsertPct: 25, DeletePct: 25} }

// UpdateHeavy is all inserts and deletes.
func UpdateHeavy() Mix { return Mix{InsertPct: 50, DeletePct: 50} }

// Distribution selects how keys are drawn from the key space.
type Distribution int

const (
	// Uniform draws keys uniformly from [0, KeySpace).
	Uniform Distribution = iota + 1
	// Zipfian draws keys with a Zipf(1.2) distribution, concentrating
	// operations on a few hot keys — the high-contention regime.
	Zipfian
)

// DelaySpec injects a delay into one in Every operations, modelling a
// process stalled by a page fault or preemption (§1). For lock-based
// structures the runner installs the delay inside the critical section
// (where a real stall would hold the lock); for lock-free structures it
// runs within the operation's window, where it stalls only the delayed
// process itself.
type DelaySpec struct {
	Every int // 0 disables injection
	D     time.Duration
}

// DelaySettable is implemented by lock-based structures that can run the
// delay hook while holding their lock.
type DelaySettable interface {
	SetDelay(func())
}

// Config parameterizes a run.
type Config struct {
	Goroutines int
	Duration   time.Duration
	Mix        Mix
	KeySpace   int
	Dist       Distribution
	Prefill    int // keys inserted before the clock starts
	Seed       int64
	Delay      DelaySpec
}

// Result reports what a run did.
type Result struct {
	Ops     int64 // total operations completed
	Finds   int64
	Inserts int64 // successful insertions
	Deletes int64 // successful deletions
	Elapsed time.Duration
	// LatP50 and LatP99 are percentiles of sampled per-operation
	// latencies (every latencySample-th operation is timed). Convoying
	// (§1) shows up here long before it shows in mean throughput.
	LatP50 time.Duration
	LatP99 time.Duration
}

// latencySample times one in this many operations.
const latencySample = 16

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// OpsPerSec returns the run's throughput.
func (r Result) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// Prefill inserts cfg.Prefill distinct keys drawn deterministically from
// the key space, so runs start from a populated structure.
func Prefill(cfg Config, d dict.Dictionary[int, int]) {
	rng := rand.New(rand.NewSource(cfg.Seed + 42))
	inserted := 0
	for _, k := range rng.Perm(max(cfg.KeySpace, cfg.Prefill)) {
		if inserted >= cfg.Prefill {
			break
		}
		if d.Insert(k, k) {
			inserted++
		}
	}
}

// Run drives cfg.Goroutines goroutines of the configured mix against d
// for cfg.Duration and reports the aggregate result. If d implements
// DelaySettable and a delay is configured, the hook is installed inside
// the structure (and removed after the run); otherwise the runner injects
// the delay within the operation window.
func Run(cfg Config, d dict.Dictionary[int, int]) Result {
	if !cfg.Mix.Valid() {
		panic("workload: invalid mix")
	}
	if cfg.KeySpace < 1 {
		cfg.KeySpace = 1
	}

	var delayCounter atomic.Int64
	delayHook := func() {}
	if cfg.Delay.Every > 0 {
		every := int64(cfg.Delay.Every)
		dur := cfg.Delay.D
		delayHook = func() {
			if delayCounter.Add(1)%every == 0 {
				time.Sleep(dur)
			}
		}
	}
	inStructure := false
	if ds, ok := d.(DelaySettable); ok && cfg.Delay.Every > 0 {
		ds.SetDelay(delayHook)
		inStructure = true
		defer ds.SetDelay(nil)
	}

	var (
		wg        sync.WaitGroup
		stop      atomic.Bool
		ops       atomic.Int64
		finds     atomic.Int64
		inserts   atomic.Int64
		deletes   atomic.Int64
		latMu     sync.Mutex
		latencies []time.Duration
	)
	start := time.Now()
	for g := 0; g < cfg.Goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var zipf *rand.Zipf
			if cfg.Dist == Zipfian {
				zipf = rand.NewZipf(rng, 1.2, 1, uint64(cfg.KeySpace-1))
			}
			var localOps, localFinds, localIns, localDel int64
			var localLats []time.Duration
			for !stop.Load() {
				k := 0
				if zipf != nil {
					k = int(zipf.Uint64())
				} else {
					k = rng.Intn(cfg.KeySpace)
				}
				if !inStructure && cfg.Delay.Every > 0 {
					delayHook()
				}
				sampled := localOps%latencySample == 0
				var opStart time.Time
				if sampled {
					opStart = time.Now()
				}
				p := rng.Intn(100)
				switch {
				case p < cfg.Mix.FindPct:
					d.Find(k)
					localFinds++
				case p < cfg.Mix.FindPct+cfg.Mix.InsertPct:
					if d.Insert(k, k) {
						localIns++
					}
				default:
					if d.Delete(k) {
						localDel++
					}
				}
				if sampled {
					localLats = append(localLats, time.Since(opStart))
				}
				localOps++
			}
			ops.Add(localOps)
			finds.Add(localFinds)
			inserts.Add(localIns)
			deletes.Add(localDel)
			latMu.Lock()
			latencies = append(latencies, localLats...)
			latMu.Unlock()
		}(cfg.Seed + int64(g) + 1)
	}
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	return Result{
		Ops:     ops.Load(),
		Finds:   finds.Load(),
		Inserts: inserts.Load(),
		Deletes: deletes.Load(),
		Elapsed: time.Since(start),
		LatP50:  percentile(latencies, 0.50),
		LatP99:  percentile(latencies, 0.99),
	}
}

// RunOps is like Run but executes a fixed number of operations per
// goroutine instead of running for a duration — the mode the extra-work
// experiments (E3–E6) use so "total work for n operations" is exact.
func RunOps(cfg Config, opsPerG int, d dict.Dictionary[int, int]) Result {
	if !cfg.Mix.Valid() {
		panic("workload: invalid mix")
	}
	if cfg.KeySpace < 1 {
		cfg.KeySpace = 1
	}
	var (
		wg      sync.WaitGroup
		finds   atomic.Int64
		inserts atomic.Int64
		deletes atomic.Int64
	)
	start := time.Now()
	for g := 0; g < cfg.Goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var zipf *rand.Zipf
			if cfg.Dist == Zipfian {
				zipf = rand.NewZipf(rng, 1.2, 1, uint64(cfg.KeySpace-1))
			}
			for i := 0; i < opsPerG; i++ {
				k := 0
				if zipf != nil {
					k = int(zipf.Uint64())
				} else {
					k = rng.Intn(cfg.KeySpace)
				}
				p := rng.Intn(100)
				switch {
				case p < cfg.Mix.FindPct:
					d.Find(k)
					finds.Add(1)
				case p < cfg.Mix.FindPct+cfg.Mix.InsertPct:
					if d.Insert(k, k) {
						inserts.Add(1)
					}
				default:
					if d.Delete(k) {
						deletes.Add(1)
					}
				}
			}
		}(cfg.Seed + int64(g) + 1)
	}
	wg.Wait()
	return Result{
		Ops:     int64(cfg.Goroutines) * int64(opsPerG),
		Finds:   finds.Load(),
		Inserts: inserts.Load(),
		Deletes: deletes.Load(),
		Elapsed: time.Since(start),
	}
}
