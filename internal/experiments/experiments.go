// Package experiments implements the reproduction suite E1–E9 and E11 defined in
// DESIGN.md: one experiment per evaluative claim of the paper. Each
// experiment returns a Table with the same rows the claim predicts;
// cmd/lfbench prints them and EXPERIMENTS.md records paper-expected vs
// measured shapes.
package experiments

import (
	"encoding/csv"
	"fmt"
	"strings"
	"time"
)

// Table is one experiment's result: a caption tying it to the paper's
// claim, column headers, and data rows.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper text the experiment checks
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as RFC-4180 CSV (header row first; claim and
// notes as comment-prefixed rows are omitted — CSV is for plotting).
func (t Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write(append([]string{}, t.Columns...))
	for _, row := range t.Rows {
		_ = w.Write(row)
	}
	w.Flush()
	return b.String()
}

// Markdown renders the table as a GitHub-flavoured markdown table with
// the claim as a caption line.
func (t Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "> %s\n\n", t.Claim)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// Options tunes how long each measured point runs.
type Options struct {
	// Duration is the wall-clock time per throughput measurement point.
	Duration time.Duration
	// Quick trims sweeps to a couple of points for smoke tests.
	Quick bool
	// Seed makes workloads reproducible.
	Seed int64
}

// DefaultOptions returns the settings cmd/lfbench uses.
func DefaultOptions() Options {
	return Options{Duration: 300 * time.Millisecond, Seed: 1}
}

func (o Options) duration() time.Duration {
	if o.Duration <= 0 {
		return 300 * time.Millisecond
	}
	return o.Duration
}

// Runner is a named experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(Options) Table
}

// All returns the experiment registry in order.
func All() []Runner {
	return []Runner{
		{ID: "E1", Name: "lock-free list vs spin locks", Run: E1},
		{ID: "E2", Name: "delay injection / convoying", Run: E2},
		{ID: "E3", Name: "sorted-list extra work", Run: E3},
		{ID: "E4", Name: "hash-table extra work", Run: E4},
		{ID: "E5", Name: "skip list vs sorted list", Run: E5},
		{ID: "E6", Name: "BST find+insert work", Run: E6},
		{ID: "E7", Name: "direct vs universal construction", Run: E7},
		{ID: "E8", Name: "SafeRead traversal overhead", Run: E8},
		{ID: "E9", Name: "free-list alloc/reclaim", Run: E9},
		{ID: "E11", Name: "epoch-based reclamation vs rc/gc", Run: E11},
		{ID: "A1", Name: "ablation: retry backoff", Run: A1},
		{ID: "A2", Name: "ablation: aux-pair removal", Run: A2},
		{ID: "A3", Name: "ablation: free-list batch size", Run: A3},
		{ID: "persist", Name: "durability cost: AOF fsync policies", Run: Persist},
	}
}

// Lookup finds an experiment by ID (case-insensitive).
func Lookup(id string) (Runner, bool) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return r, true
		}
	}
	return Runner{}, false
}

func fmtOps(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/1e6)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.0fµs", float64(d)/1e3)
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}
