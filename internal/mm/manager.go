package mm

import "sync/atomic"

// Manager is the memory management interface of §5: allocation and
// reclamation of cells (§5.2) and the SafeRead/Release reference-count
// protocol (§5.1) that makes Compare&Swap on recycled cells safe from the
// ABA problem.
//
// The list algorithms of §3 are written against this interface so that the
// faithful reference-counted manager (RC) and the garbage-collector-backed
// manager (GC) are interchangeable; experiment E8 measures the difference.
type Manager[T any] interface {
	// Alloc returns a cell for exclusive use by the caller, or nil if the
	// manager has a fixed capacity and it is exhausted (Figure 17 returns
	// NULL on an empty free list). The returned cell carries one
	// reference owned by the caller; hand it back with Release once it is
	// either published (the structure's links then keep it alive) or
	// abandoned.
	Alloc() *Node[T]

	// SafeRead atomically reads the pointer at p and acquires a reference
	// to the cell read (Figure 15). The caller must pair it with Release.
	// It returns nil, without acquiring anything, if p holds nil.
	SafeRead(p *atomic.Pointer[Node[T]]) *Node[T]

	// Release gives up one reference to n, reclaiming the cell for reuse
	// if it was the last (Figure 16). Release(nil) is a no-op.
	Release(n *Node[T])

	// AddRef acquires an additional reference to a cell the caller
	// already safely holds. It accounts for storing a new pointer to n
	// into a cell field, or for duplicating a held reference (e.g. when a
	// cursor copies its target into pre_cell, Figure 7 line 4).
	// AddRef(nil) is a no-op.
	AddRef(n *Node[T])

	// Stats returns allocation counters for leak checks and experiment E9.
	Stats() Stats
}

// Stats reports cumulative allocation activity of a Manager.
type Stats struct {
	// Allocs is the number of successful Alloc calls.
	Allocs int64
	// Reclaims is the number of cells returned to the manager. Under the
	// GC manager it counts cells whose last reference was dropped through
	// Release only notionally (always zero) because the collector does
	// the actual reclamation.
	Reclaims int64
	// Created is the number of distinct cells ever created. Under RC,
	// Allocs-Reclaims ≤ live references and Created bounds the arena.
	Created int64

	// The remaining fields describe free-list behavior and are always
	// zero under the GC manager, which has no free list.

	// Pops counts successful Figure 17 pops.
	Pops int64
	// Pushes counts Figure 18 pushes (reclaims plus the surplus cells
	// each arena grow contributes).
	Pushes int64
	// Grows counts arena growth events (batches of cells created because
	// the free list was empty).
	Grows int64

	// Epoch and Limbo are gauges of the EBR manager (zero elsewhere):
	// the current global epoch and the number of retired cells awaiting
	// their grace period.
	Epoch int64
	Limbo int64
}

// Live returns the number of cells currently checked out (allocated and
// not yet reclaimed). Under RC at quiescence this must equal the number of
// cells reachable from live structures plus references still held by
// cursors; tests use it for leak detection.
func (s Stats) Live() int64 { return s.Allocs - s.Reclaims }

type stats struct {
	allocs   atomic.Int64
	reclaims atomic.Int64
	created  atomic.Int64
	pops     atomic.Int64
	pushes   atomic.Int64
	grows    atomic.Int64
}

func (s *stats) snapshot() Stats {
	return Stats{
		Allocs:   s.allocs.Load(),
		Reclaims: s.reclaims.Load(),
		Created:  s.created.Load(),
		Pops:     s.pops.Load(),
		Pushes:   s.pushes.Load(),
		Grows:    s.grows.Load(),
	}
}
