package core

import (
	"errors"
	"fmt"

	"valois/internal/mm"
)

// Structural invariant checking for tests and the stress tool. These
// helpers read the list with plain loads and are only meaningful at
// quiescence (no operations in flight).

// ErrStructure reports a violation of the list's structural invariants.
var ErrStructure = errors.New("core: list structure violated")

// CheckQuiescent validates the §3 structural invariants of a quiescent
// list: the chain starts at the First dummy and ends at the Last dummy,
// every normal cell has exactly one auxiliary node as predecessor and
// successor (the theorem at the end of §3: once all deletions have
// completed, no extra auxiliary nodes remain), and no cell in the list has
// its back_link set.
func (l *List[T]) CheckQuiescent() error {
	n := l.first.Next()
	if n == nil {
		return fmt.Errorf("%w: First has nil next", ErrStructure)
	}
	// The walk expects the repeating shape aux (cell aux)* terminated by
	// the Last dummy.
	auxRun := 0
	pos := 0
	for cur := n; ; pos++ {
		if cur == nil {
			return fmt.Errorf("%w: nil link at position %d", ErrStructure, pos)
		}
		switch cur.Kind() {
		case mm.KindLast:
			if cur != l.last {
				return fmt.Errorf("%w: foreign Last dummy at position %d", ErrStructure, pos)
			}
			if auxRun != 1 {
				return fmt.Errorf("%w: %d auxiliary nodes before Last (want 1)", ErrStructure, auxRun)
			}
			return nil
		case mm.KindAux:
			auxRun++
			if auxRun > 1 {
				return fmt.Errorf("%w: auxiliary chain of length %d at position %d (quiescent list must have none)", ErrStructure, auxRun, pos)
			}
		case mm.KindCell:
			if auxRun != 1 {
				return fmt.Errorf("%w: cell at position %d preceded by %d auxiliary nodes (want 1)", ErrStructure, pos, auxRun)
			}
			auxRun = 0
			if cur.Deleted() {
				return fmt.Errorf("%w: deleted cell (back_link set) still linked at position %d", ErrStructure, pos)
			}
		case mm.KindFirst:
			return fmt.Errorf("%w: First dummy re-encountered at position %d", ErrStructure, pos)
		default:
			return fmt.Errorf("%w: invalid kind %v at position %d", ErrStructure, cur.Kind(), pos)
		}
		if pos > 1<<26 {
			return fmt.Errorf("%w: traversal did not terminate (cycle?)", ErrStructure)
		}
		cur = cur.Next()
	}
}

// Items returns a snapshot of the items currently in the list, in list
// order, gathered with a cursor.
func (l *List[T]) Items() []T {
	var c Cursor[T]
	l.InitCursor(&c)
	defer c.Close()
	var items []T
	for !c.End() {
		items = append(items, c.Item())
		if !c.Next() {
			break
		}
	}
	return items
}
