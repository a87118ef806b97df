package core

import "sync/atomic"

// Counters accumulates the "extra work" measures of §4.1's amortized
// analysis: auxiliary-node hops beyond the one per position the structure
// always has, removals of adjacent auxiliary pairs, back-link walk steps,
// chain-collapse steps, and operation retries. All methods are safe on a
// nil receiver (counting disabled) and safe for concurrent use.
type Counters struct {
	auxSkips         atomic.Int64
	auxRemovals      atomic.Int64
	backlinkSteps    atomic.Int64
	chainSteps       atomic.Int64
	deleteCASRetries atomic.Int64
	insertRetries    atomic.Int64
	deleteRetries    atomic.Int64
}

// WorkStats is a plain snapshot of Counters.
type WorkStats struct {
	// AuxSkips counts auxiliary nodes traversed by Update beyond the
	// single auxiliary node every position always has: the paper's
	// "work done traversing extra auxiliary nodes" (§4.1).
	AuxSkips int64
	// AuxRemovals counts successful removals of an adjacent auxiliary
	// pair (Figure 5 line 7).
	AuxRemovals int64
	// BacklinkSteps counts back_link hops in TryDelete (Figure 10 line 9).
	BacklinkSteps int64
	// ChainSteps counts auxiliary-chain hops in TryDelete (Fig 10 line 14).
	ChainSteps int64
	// DeleteCASRetries counts retries of the chain-collapse Compare&Swap
	// (Figure 10 lines 17-21).
	DeleteCASRetries int64
	// InsertRetries counts failed TryInsert attempts: the paper's
	// "repetitive calls to TryInsert" (§4.1).
	InsertRetries int64
	// DeleteRetries counts failed TryDelete attempts.
	DeleteRetries int64
}

// ExtraWork sums every component of §4.1's extra-work measure.
func (w WorkStats) ExtraWork() int64 {
	return w.AuxSkips + w.AuxRemovals + w.BacklinkSteps + w.ChainSteps +
		w.DeleteCASRetries + w.InsertRetries + w.DeleteRetries
}

// Add accumulates o into w, field by field; the dictionaries sum their
// lists' snapshots with it.
func (w *WorkStats) Add(o WorkStats) {
	w.AuxSkips += o.AuxSkips
	w.AuxRemovals += o.AuxRemovals
	w.BacklinkSteps += o.BacklinkSteps
	w.ChainSteps += o.ChainSteps
	w.DeleteCASRetries += o.DeleteCASRetries
	w.InsertRetries += o.InsertRetries
	w.DeleteRetries += o.DeleteRetries
}

// Snapshot returns the current counter values; zero values if counting is
// disabled.
func (c *Counters) Snapshot() WorkStats {
	if c == nil {
		return WorkStats{}
	}
	return WorkStats{
		AuxSkips:         c.auxSkips.Load(),
		AuxRemovals:      c.auxRemovals.Load(),
		BacklinkSteps:    c.backlinkSteps.Load(),
		ChainSteps:       c.chainSteps.Load(),
		DeleteCASRetries: c.deleteCASRetries.Load(),
		InsertRetries:    c.insertRetries.Load(),
		DeleteRetries:    c.deleteRetries.Load(),
	}
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	if c == nil {
		return
	}
	c.auxSkips.Store(0)
	c.auxRemovals.Store(0)
	c.backlinkSteps.Store(0)
	c.chainSteps.Store(0)
	c.deleteCASRetries.Store(0)
	c.insertRetries.Store(0)
	c.deleteRetries.Store(0)
}

// AddInsertRetries records n failed insertion attempts; called by the
// dictionary layer's retry loops (Figure 12).
func (c *Counters) AddInsertRetries(n int64) {
	if c == nil {
		return
	}
	c.insertRetries.Add(n)
}

// AddDeleteRetries records n failed deletion attempts (Figure 13).
func (c *Counters) AddDeleteRetries(n int64) {
	if c == nil {
		return
	}
	c.deleteRetries.Add(n)
}

func (c *Counters) addAuxSkips(n int64) {
	if c == nil {
		return
	}
	c.auxSkips.Add(n)
}

func (c *Counters) addAuxRemovals(n int64) {
	if c == nil {
		return
	}
	c.auxRemovals.Add(n)
}

func (c *Counters) addBacklinkSteps(n int64) {
	if c == nil {
		return
	}
	c.backlinkSteps.Add(n)
}

func (c *Counters) addChainSteps(n int64) {
	if c == nil {
		return
	}
	c.chainSteps.Add(n)
}

func (c *Counters) addDeleteCASRetries(n int64) {
	if c == nil {
		return
	}
	c.deleteCASRetries.Add(n)
}
