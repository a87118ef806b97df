package dict_test

import (
	"testing"

	"valois/internal/bst"
	"valois/internal/dict"
	"valois/internal/mm"
	"valois/internal/skiplist"
)

// FuzzDictionarySemantics feeds one operation stream to every dictionary
// implementation and a map model; any divergence in any return value is a
// bug in one of them.
func FuzzDictionarySemantics(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 1, 1, 1, 4, 1})
	f.Add([]byte{0, 5, 0, 5, 1, 5, 1, 5})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 2, 2, 2, 1, 0, 2})
	f.Add([]byte{3, 1, 2, 1, 3, 1, 2, 1, 1, 1, 3, 1, 0, 1, 2, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		structures := []struct {
			name string
			d    dict.Dictionary[int, int]
		}{
			{"sortedlist", dict.NewSortedList[int, int](mm.ModeRC)},
			{"hash", dict.NewHash[int, int](4, mm.ModeGC, dict.HashInt)},
			{"skiplist", skiplist.New[int, int](mm.ModeGC, skiplist.WithMaxLevel(4))},
			{"bst", bst.New[int, int](mm.ModeRC)},
		}
		model := map[int]int{}
		val := 0
		for i := 0; i+1 < len(ops); i += 2 {
			op := ops[i] % 4
			k := int(ops[i+1] % 16)
			switch op {
			case 0:
				val++
				_, exists := model[k]
				for _, s := range structures {
					if got := s.d.Insert(k, val); got != !exists {
						t.Fatalf("%s: Insert(%d,%d) = %v, model says %v", s.name, k, val, got, !exists)
					}
				}
				if !exists {
					model[k] = val
				}
			case 1:
				_, exists := model[k]
				for _, s := range structures {
					if got := s.d.Delete(k); got != exists {
						t.Fatalf("%s: Delete(%d) = %v, model says %v", s.name, k, got, exists)
					}
				}
				delete(model, k)
			case 3:
				val++
				for _, s := range structures {
					s.d.Upsert(k, val)
				}
				model[k] = val
			default:
				mv, exists := model[k]
				for _, s := range structures {
					v, ok := s.d.Find(k)
					if ok != exists || (ok && v != mv) {
						t.Fatalf("%s: Find(%d) = %d,%v; model says %d,%v", s.name, k, v, ok, mv, exists)
					}
				}
			}
		}
		// Cross-check the final population everywhere.
		for k := 0; k < 16; k++ {
			_, want := model[k]
			for _, s := range structures {
				if _, ok := s.d.Find(k); ok != want {
					t.Fatalf("%s: final Find(%d) = %v, want %v", s.name, k, ok, want)
				}
			}
		}
	})
}
