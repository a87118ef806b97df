package experiments

import (
	"fmt"
	"runtime"
	"time"

	"valois/internal/core"
	"valois/internal/dict"
	"valois/internal/mm"
	"valois/internal/workload"
)

// E11 measures the epoch-based reclamation manager (mode=ebr) against the
// paper's §5 reference counts (mode=rc) and the GC baseline on the two
// axes where the modes differ: the C8 per-hop traversal cost (E8's
// single-goroutine methodology — ebr exists precisely to remove the two
// atomic counter updates SafeRead/Release charge per hop) and allocation
// churn under multiprogramming (E9/E10's methodology — ebr's retire path
// defers cells through limbo, so its churn throughput shows the grace-
// period overhead the traversal numbers do not). Every ebr arm ends with
// a quiesce: limbo must drain completely and the live-cell count must
// return to zero, so the speed columns can never be bought with a leak.
func E11(o Options) Table {
	size := 10000
	passes := 30
	procs := []int{1, 2, 4, 8}
	if o.Quick {
		size = 1000
		passes = 5
		procs = []int{1, 4}
	}
	const holdPerG = 8

	t := Table{
		ID:      "E11",
		Title:   fmt.Sprintf("epoch-based reclamation vs §5 counts: %d-cell traversal and free-list churn", size),
		Claim:   `"The most time consuming operation is most likely performing a SafeRead on each cell as we traverse the list" (§6) — epoch-based reclamation pins once per cursor instead of counting every hop`,
		Columns: []string{"point", "gc", "rc", "ebr", "ebr vs rc", "ebr vs gc", "ebr leak check"},
	}

	// Per-hop traversal cost, E8's shape: prefill, warm, timed passes.
	hop := map[mm.Mode]float64{}
	leak := "ok (0 live)"
	for _, mode := range []mm.Mode{mm.ModeGC, mm.ModeRC, mm.ModeEBR} {
		m := mm.NewManager[int](mode)
		l := core.New(m)
		c := l.NewCursor()
		for i := 0; i < size; i++ {
			q, a := l.AllocInsertNodes(i)
			if !c.TryInsert(q, a) {
				panic("experiments: prefill insert failed on idle list")
			}
			l.ReleaseNodes(q, a)
			c.Update()
		}
		c.Close()

		runtime.GC()
		warm := l.NewCursor()
		for !warm.End() {
			if !warm.Next() {
				break
			}
		}
		warm.Close()

		start := time.Now()
		items := 0
		for pass := 0; pass < passes; pass++ {
			tc := l.NewCursor()
			for !tc.End() {
				items++
				if !tc.Next() {
					break
				}
			}
			tc.Close()
		}
		hop[mode] = time.Since(start).Seconds() * 1e9 / float64(items)
		if q, ok := m.(mm.Quiescer); ok {
			l.Close()
			leak = e11Drain(q)
		}
	}
	t.Rows = append(t.Rows, []string{
		"traversal (ns/item)",
		fmt.Sprintf("%.1f", hop[mm.ModeGC]),
		fmt.Sprintf("%.1f", hop[mm.ModeRC]),
		fmt.Sprintf("%.1f", hop[mm.ModeEBR]),
		fmtF(hop[mm.ModeEBR]/hop[mm.ModeRC]) + "x",
		fmtF(hop[mm.ModeEBR]/hop[mm.ModeGC]) + "x",
		leak,
	})

	// Raw Alloc/Release churn with the E10 yield hook (the single-CPU
	// analogue of a preempted process holding a CAS window open).
	for _, p := range procs {
		gcRate, _ := churn(mm.NewGC[int](), p, o.duration(), holdPerG)
		runtime.GC()
		rcm := mm.NewRC[int]()
		rcm.SetYieldHook(runtime.Gosched)
		rcRate, _ := churn(rcm, p, o.duration(), holdPerG)
		runtime.GC()
		ebrm := mm.NewEBR[int]()
		ebrm.SetYieldHook(runtime.Gosched)
		ebrRate, _ := churn(ebrm, p, o.duration(), holdPerG)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("churn p=%d (pairs/s)", p),
			fmtOps(gcRate),
			fmtOps(rcRate),
			fmtOps(ebrRate),
			fmtF(safeRatio(ebrRate, rcRate)) + "x",
			fmtF(safeRatio(ebrRate, gcRate)) + "x",
			e11Drain(ebrm),
		})
	}

	// End-to-end: the update-heavy sorted-list workload under torture
	// (E10's dict row), once per mode.
	gcOps, _ := e11Dict(o, mm.ModeGC)
	rcOps, _ := e11Dict(o, mm.ModeRC)
	ebrOps, dictLeak := e11Dict(o, mm.ModeEBR)
	t.Rows = append(t.Rows, []string{
		"dict p=4 (ops/s)",
		fmtOps(gcOps),
		fmtOps(rcOps),
		fmtOps(ebrOps),
		fmtF(safeRatio(ebrOps, rcOps)) + "x",
		fmtF(safeRatio(ebrOps, gcOps)) + "x",
		dictLeak,
	})

	t.Notes = append(t.Notes,
		"ebr traversal hops are plain loads inside a pinned epoch (pin/unpin amortized once per cursor), so the per-hop cost must sit strictly below rc's two atomic counter updates and near the gc baseline",
		"ebr still counts stored links (edges, descriptors), so mutation-heavy rows pay counted link maintenance plus limbo bookkeeping — reclamation cost moved off the reader, not eliminated",
		"every ebr arm force-advances and drains at quiescence: limbo empty, live cells zero — the throughput columns are leak-audited",
		"rc and ebr churn arms install the same free-list yield hook as E10; the gc arm has no free-list head to contend on")
	return t
}

// e11Drain quiesces an EBR manager and renders the leak-check cell.
func e11Drain(q mm.Quiescer) string {
	q.ForceAdvance()
	if !q.Quiesce() {
		return fmt.Sprintf("WEDGED (%d in limbo)", q.LimboLen())
	}
	type liver interface{ Stats() mm.Stats }
	if s, ok := q.(liver); ok {
		if live := s.Stats().Live(); live != 0 {
			return fmt.Sprintf("LEAK (%d live)", live)
		}
	}
	return "ok (0 live)"
}

// e11Dict runs the update-heavy sorted-list workload at p=4 under torture
// (E10's dict-row methodology) for the given mode, returning ops/s and
// the ebr leak-check cell ("-" for modes without deferred reclamation).
func e11Dict(o Options, mode mm.Mode) (float64, string) {
	const p = 4
	d := dict.NewSortedList[int, int](mode)
	d.EnableTorture(2)
	if m, ok := d.List().Manager().(interface{ SetYieldHook(func()) }); ok {
		m.SetYieldHook(runtime.Gosched) // rc and ebr: the free-list windows
	}
	cfg := workload.Config{
		Goroutines: p,
		Duration:   o.duration(),
		Mix:        workload.UpdateHeavy(),
		KeySpace:   512,
		Prefill:    256,
		Seed:       o.Seed,
	}
	workload.Prefill(cfg, d)
	res := workload.Run(cfg, d)
	leak := "-"
	if q, ok := d.List().Manager().(mm.Quiescer); ok {
		d.Close()
		leak = e11Drain(q)
	} else {
		d.Close()
	}
	return res.OpsPerSec(), leak
}

// safeRatio guards the division of throughput or latency ratios.
func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
