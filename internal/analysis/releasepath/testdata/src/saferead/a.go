// Package a is the deleted saferead analyzer's fixture, line for line: the
// releasepath and refbalance tests both run it, each with its own wants.
package a

import "sync/atomic"

type node struct {
	next atomic.Pointer[node]
	ref  atomic.Int64
	item int
}

type mgr struct {
	head  atomic.Pointer[node]
	cache *node
}

// SafeRead acquires a counted reference (Figure 15 shape).
func (m *mgr) SafeRead(p *atomic.Pointer[node]) *node {
	for {
		q := p.Load()
		if q == nil {
			return nil
		}
		q.ref.Add(1)
		if q == p.Load() {
			return q
		}
		m.Release(q)
	}
}

// Release drops a counted reference (Figure 16 shape).
func (m *mgr) Release(n *node) {
	if n != nil {
		n.ref.Add(-1)
	}
}

// leakStraightLine never releases the reference at all.
func leakStraightLine(m *mgr) int {
	q := m.SafeRead(&m.head) // want releasepath:`reference in q \(from SafeRead\) is not released or transferred on the exit path through the return at line \d+` refbalance:`counted reference in q \(from SafeRead\) is not released on every path`
	return q.item
}

// leakOnEarlyReturn releases on the main path but not before the guard
// clause returns.
func leakOnEarlyReturn(m *mgr, limit int) int {
	q := m.SafeRead(&m.head) // want releasepath:`reference in q \(from SafeRead\) is not released or transferred on the exit path through the return at line \d+` refbalance:`counted reference in q \(from SafeRead\) is not released on every path`
	if limit == 0 {
		return -1 // leaks q
	}
	v := q.item
	m.Release(q)
	return v
}

// leakDiscarded drops the result on the floor.
func leakDiscarded(m *mgr) {
	m.SafeRead(&m.head) // want refbalance:`result of SafeRead carries a counted reference that is discarded`
}

// leakOverwrite re-reads into the same variable while the first reference
// is still live.
func leakOverwrite(m *mgr) {
	q := m.SafeRead(&m.head) // want refbalance:`counted reference in q \(from SafeRead\) is overwritten before being released`
	q = m.SafeRead(&m.head)
	m.Release(q)
}

// balanced is the canonical shape: nil-guard, use, Release.
func balanced(m *mgr) int {
	q := m.SafeRead(&m.head)
	if q == nil {
		return 0
	}
	v := q.item
	m.Release(q)
	return v
}

// transferred hands the obligation to another variable and releases that.
func transferred(m *mgr) {
	q := m.SafeRead(&m.head)
	p := q
	m.Release(p)
}

// returned transfers ownership to the caller.
func returned(m *mgr) *node {
	q := m.SafeRead(&m.head)
	return q
}

// storedInField transfers ownership to the structure.
func storedInField(m *mgr) {
	m.cache = m.SafeRead(&m.head)
}

// deferred releases via defer.
func deferred(m *mgr) int {
	q := m.SafeRead(&m.head)
	defer m.Release(q)
	if q == nil {
		return 0
	}
	return q.item
}

// retryLoop re-reads each iteration and releases before retrying, the
// Alloc shape of Figure 17.
func retryLoop(m *mgr) *node {
	for {
		q := m.SafeRead(&m.head)
		if q == nil {
			return nil
		}
		if m.head.CompareAndSwap(q, q.next.Load()) {
			return q
		}
		m.Release(q)
	}
}

// loopCarried walks a chain, releasing the previous reference after
// acquiring the next, the Figure 10 back-link walk shape.
func loopCarried(m *mgr) {
	p := m.SafeRead(&m.head)
	for p != nil {
		q := m.SafeRead(&p.next)
		m.Release(p)
		p = q
	}
}

// capturedByClosure escapes into the closure, which releases it.
func capturedByClosure(m *mgr) func() {
	q := m.SafeRead(&m.head)
	return func() { m.Release(q) }
}

// guard marks an epoch-protected region (the mode=ebr shape).
type guard struct{ slot *int }

// Pin opens an epoch-protected region and returns its guard.
func (m *mgr) Pin() guard { return guard{} }

// Unpin closes the region.
func (m *mgr) Unpin(g guard) { _ = g }

// discardedGuard drops the guard on the floor: with no handle, the pin
// can never be released and reclamation wedges at this epoch.
func discardedGuard(m *mgr) {
	m.Pin() // want releasepath:`guard returned by Pin is discarded`
}

// blankGuard discards through the blank identifier — same wedge.
func blankGuard(m *mgr) {
	_ = m.Pin() // want releasepath:`guard returned by Pin is discarded`
}

// pinnedRegion is the clean shape: guard bound, deferred unpin, counted
// traversal balanced inside the pinned window.
func pinnedRegion(m *mgr) int {
	g := m.Pin()
	defer m.Unpin(g)
	q := m.SafeRead(&m.head)
	if q == nil {
		return 0
	}
	v := q.item
	m.Release(q)
	return v
}
