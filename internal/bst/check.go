package bst

import (
	"errors"
	"fmt"

	"valois/internal/mm"
)

// ErrStructure reports a violation of the tree's structural invariants.
var ErrStructure = errors.New("bst: tree structure violated")

// CheckQuiescent validates the §4.2 structural invariants of a quiescent
// tree: every edge passes through at least one auxiliary node and
// terminates at a cell or the empty sentinel; every cell's key lies within
// the bounds implied by its ancestors; and no cell is tombstoned or
// claimed by an unfinished deletion. It reads plainly and must only be
// called while no operations are in flight.
func (t *Tree[K, V]) CheckQuiescent() error {
	seen := make(map[*mm.Node[item[K, V]]]bool)
	var lo, hi *K
	return t.checkEdge(t.root, lo, hi, seen, 0)
}

func (t *Tree[K, V]) checkEdge(a *mm.Node[item[K, V]], lo, hi *K, seen map[*mm.Node[item[K, V]]]bool, depth int) error {
	if depth > 1<<20 {
		return fmt.Errorf("%w: edge recursion did not terminate (cycle?)", ErrStructure)
	}
	if a == nil || !a.IsAux() {
		return fmt.Errorf("%w: edge is not an auxiliary node (kind %v)", ErrStructure, a.Kind())
	}
	// Follow the auxiliary chain.
	cur := a.Next()
	for hops := 0; ; hops++ {
		if cur == nil {
			return fmt.Errorf("%w: nil edge", ErrStructure)
		}
		if cur == t.empty {
			return nil
		}
		if cur.IsAux() {
			if hops > 1<<20 {
				return fmt.Errorf("%w: auxiliary chain did not terminate (short-circuit left behind?)", ErrStructure)
			}
			cur = cur.Next()
			continue
		}
		break
	}
	n := cur
	if n.Kind() != mm.KindCell {
		return fmt.Errorf("%w: edge terminates at kind %v", ErrStructure, n.Kind())
	}
	if seen[n] {
		return fmt.Errorf("%w: cell with key %v reachable twice", ErrStructure, n.Item.Key)
	}
	seen[n] = true
	if n.Deleted() {
		return fmt.Errorf("%w: claimed/deleted cell with key %v still linked", ErrStructure, n.Item.Key)
	}
	if !n.Item.val.Live() {
		return fmt.Errorf("%w: tombstoned cell with key %v still linked", ErrStructure, n.Item.Key)
	}
	k := n.Item.Key
	if lo != nil && k <= *lo {
		return fmt.Errorf("%w: key %v violates lower bound %v", ErrStructure, k, *lo)
	}
	if hi != nil && k >= *hi {
		return fmt.Errorf("%w: key %v violates upper bound %v", ErrStructure, k, *hi)
	}
	if err := t.checkEdge(n.Item.Left, lo, &k, seen, depth+1); err != nil {
		return err
	}
	return t.checkEdge(n.Item.Right, &k, hi, seen, depth+1)
}

// NodeCount returns the number of distinct managed nodes — cells,
// auxiliary nodes, and the empty sentinel — reachable from the root of
// a quiescent tree. Deletions deliberately leave the deleted cell's
// auxiliary nodes behind as connective chains (§4.2 has no analogue of
// the list's adjacent-auxiliary collapse), so live-cell accounting
// cannot use a per-key formula: the reachable count is the exact
// complement of the manager's live statistic, and any managed node that
// is neither reachable nor awaiting reclamation is a leak.
func (t *Tree[K, V]) NodeCount() int {
	seen := make(map[*mm.Node[item[K, V]]]bool)
	t.countEdge(t.root, seen)
	return len(seen)
}

func (t *Tree[K, V]) countEdge(a *mm.Node[item[K, V]], seen map[*mm.Node[item[K, V]]]bool) {
	cur := a
	for cur != nil && cur.IsAux() {
		if seen[cur] {
			return
		}
		seen[cur] = true
		cur = cur.Next()
	}
	if cur == nil || seen[cur] {
		return
	}
	seen[cur] = true
	if cur == t.empty || cur.Kind() != mm.KindCell {
		return
	}
	t.countEdge(cur.Item.Left, seen)
	t.countEdge(cur.Item.Right, seen)
}

// Keys returns the keys currently in the tree in ascending order, via
// Range.
func (t *Tree[K, V]) Keys() []K {
	var keys []K
	t.Range(func(k K, _ V) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}
