package loadgen

import "fmt"

// Model is the oracle: which keys are bound. Keys sort as their indices
// do, and a key's value never changes, so a bitmap is the whole sorted
// dictionary.
type Model struct {
	present []bool
	items   []uint32
}

// NewModel returns the model of a freshly prefilled server.
func NewModel(w *Workload) *Model {
	m := &Model{present: make([]bool, w.Keys)}
	for k := range m.present {
		m.present[k] = w.Prefilled(uint32(k))
	}
	return m
}

// Apply executes op on the model and returns the reply a correct server
// gives when nothing else runs: the GET/DEL hit, or the RANGE's item keys
// (valid until the next Apply).
func (m *Model) Apply(op Op) (hit bool, items []uint32) {
	switch op.Verb {
	case Get:
		return m.present[op.Key], nil
	case Set:
		m.present[op.Key] = true
	case Del:
		hit = m.present[op.Key]
		m.present[op.Key] = false
	case Range:
		m.items = m.items[:0]
		for k := int(op.Key); k < len(m.present) && len(m.items) < RangeCount; k++ {
			if m.present[k] {
				m.items = append(m.items, uint32(k))
			}
		}
		return false, m.items
	}
	return hit, nil
}

// Checker returns a Check that applies ops to the model, in order, and
// compares each reply with the model's. Per-key order is all the server
// guarantees inside one batch, and it is all the model depends on: a
// RANGE is a barrier in the server's batch executor.
func (m *Model) Checker(ops []Op) Check {
	return func(i int, hit bool, items []uint32) error {
		wantHit, wantItems := m.Apply(ops[i])
		if hit != wantHit {
			return fmt.Errorf("hit=%v, model says %v", hit, wantHit)
		}
		if len(items) != len(wantItems) {
			return fmt.Errorf("%d items, model says %d", len(items), len(wantItems))
		}
		for j := range items {
			if items[j] != wantItems[j] {
				return fmt.Errorf("item %d is key %d, model says %d", j, items[j], wantItems[j])
			}
		}
		return nil
	}
}
