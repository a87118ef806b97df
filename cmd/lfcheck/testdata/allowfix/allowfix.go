// Package allowfix is a driver-level fixture for the //lfcheck:allow
// directive: it contains one deliberate leak suppressed by a wildcard
// directive, and one malformed directive (missing its reason) that the
// driver must itself report. Unlike the analyzer fixtures, this package is
// exercised through the lfcheck binary, because directives are honored by
// the driver, not by individual analyzers.
package allowfix

import "sync/atomic"

type node struct {
	next atomic.Pointer[node]
	ref  atomic.Int64
	item int
}

type mgr struct {
	head atomic.Pointer[node]
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

// suppressedLeak leaks its reference on purpose; the wildcard directive
// silences every analyzer that notices (releasepath and refbalance both do).
func suppressedLeak(m *mgr) int {
	//lfcheck:allow all fixture: deliberate leak kept to demonstrate suppression
	q := m.SafeRead(&m.head)
	if q == nil {
		return 0
	}
	return q.item
}

// The directive below is malformed — it names a check but gives no reason —
// so the driver reports the directive itself.
//
//lfcheck:allow releasepath
func balanced(m *mgr) int {
	q := m.SafeRead(&m.head)
	if q == nil {
		return 0
	}
	v := q.item
	m.Release(q)
	return v
}
