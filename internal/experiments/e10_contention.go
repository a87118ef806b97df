package experiments

import (
	"fmt"
	"runtime"

	"valois/internal/dict"
	"valois/internal/mm"
	"valois/internal/workload"
)

// E10 measures the striped free list against the paper's single-head
// free list (§5.2, Figures 17-18) under multiprogramming. On this
// host's single CPU goroutines run quasi-serially, so — exactly like
// the torture hook used by E3/E4 and ablation A1 — every arm installs
// the same free-list yield hook, which opens the read-head-then-CAS
// window that a preempted process occupies on real hardware. The
// single-head arm then pays a failed CAS (plus backoff) whenever a
// concurrent goroutine moved the shared head inside the window; the
// striped arms do not, because concurrent goroutines claim distinct
// stripes. At p=1 no other goroutine can occupy the window, so all
// arms must agree — any gap there would be overhead, not contention.
func E10(o Options) Table {
	procs := []int{1, 2, 4, 8}
	if o.Quick {
		procs = []int{1, 4}
	}
	const (
		holdPerG = 8 // short hold: maximize pop/push traffic per pair
		stripes  = 8 // fixed, so the arm is identical at every p
	)

	t := Table{
		ID:    "E10",
		Title: fmt.Sprintf("free-list Alloc/Release churn, single head vs %d stripes (pairs/s)", stripes),
		Claim: `"as the level of multiprogramming increased ... the lock-free implementation had constant throughput" (§6) — the §5.2 free list's single head is the one shared CAS target every operation must cross`,
		Columns: []string{"p", "single head", "striped packed", "striped+padded",
			"padded/single", "leak check"},
	}
	for _, p := range procs {
		arms := []struct {
			name string
			opts []mm.RCOption
		}{
			{"single head", []mm.RCOption{mm.WithStripes(1), mm.WithCellPadding(false)}},
			{"striped packed", []mm.RCOption{mm.WithStripes(stripes), mm.WithCellPadding(false)}},
			{"striped+padded", []mm.RCOption{mm.WithStripes(stripes)}},
		}
		rates := make([]float64, len(arms))
		leaked := int64(0)
		for i, arm := range arms {
			runtime.GC() // collect prior arms' arenas outside the timed window
			m := mm.NewRC[int](arm.opts...)
			m.SetYieldHook(runtime.Gosched)
			rate, leak := churn(m, p, o.duration(), holdPerG)
			rates[i] = rate
			leaked += leak
		}
		ratio := 0.0
		if rates[0] > 0 {
			ratio = rates[2] / rates[0]
		}
		check := "ok (0 live)"
		if leaked != 0 {
			check = fmt.Sprintf("LEAK (%d live)", leaked)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p),
			fmtOps(rates[0]),
			fmtOps(rates[1]),
			fmtOps(rates[2]),
			fmtF(ratio) + "x",
			check,
		})
	}

	// One end-to-end row: an update-heavy dictionary workload where the
	// free list is fed by real Insert/Delete churn rather than raw
	// Alloc/Release pairs. Torture mode (period 2) materializes the list
	// CAS windows the same way the yield hook does for the free list.
	single, singleSteals := e10Dict(o, mm.FaithfulOptions()...)
	striped, stripedSteals := e10Dict(o, mm.WithStripes(stripes))
	ratio := 0.0
	if single > 0 {
		ratio = striped / single
	}
	t.Rows = append(t.Rows, []string{
		"4 (dict)",
		fmtOps(single),
		"-",
		fmtOps(striped),
		fmtF(ratio) + "x",
		fmt.Sprintf("steals %d vs %d", singleSteals, stripedSteals),
	})

	t.Notes = append(t.Notes,
		"all arms install the same free-list yield hook (one Gosched per head CAS), the single-CPU analogue of a preempted process holding the window open — the E3/E4/A1 torture methodology",
		"the striped arms keep each stripe a Fig 17/18 SafeRead-protected stack, so the §5.1 ABA argument is per-stripe unchanged; see DESIGN.md §5 deviations",
		"the dict row runs the update-heavy sorted-list workload under torture period 2 with the faithful single-head configuration vs the striped default",
		"padding spaces cells a cache line apart in grow(); on this single-CPU host it cannot show a gap vs packed — the column is kept for multicore runs")
	return t
}

// e10Dict runs the update-heavy sorted-list workload at p=4 with the
// given RC options, returning ops/s and the manager's steal count.
func e10Dict(o Options, opts ...mm.RCOption) (float64, int64) {
	const p = 4
	d := dict.NewSortedList[int, int](mm.ModeRC, opts...)
	defer d.Close()
	d.EnableTorture(2)
	if rc, ok := d.List().Manager().(interface{ SetYieldHook(func()) }); ok {
		rc.SetYieldHook(runtime.Gosched)
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
	return res.OpsPerSec(), d.MemStats().Steals
}
