// Micro-benchmarks of the §3 cursor operations through the public API.
// The reproduction experiments (DESIGN.md E1–E9, E11) are run by cmd/lfbench.
package valois_test

import (
	"testing"

	"valois"
)

func BenchmarkCursorTraversal(b *testing.B) {
	l := valois.NewList[int](valois.GC)
	c := l.Cursor()
	for i := 0; i < 1024; i++ {
		c.Insert(i)
	}
	c.Close()
	b.ResetTimer()
	items := 0
	for items < b.N {
		tc := l.Cursor()
		for !tc.End() && items < b.N {
			items++
			tc.Next()
		}
		tc.Close()
	}
}

func BenchmarkCursorInsertDeleteFront(b *testing.B) {
	l := valois.NewList[int](valois.GC)
	c := l.Cursor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		c.Insert(i)
		c.Reset()
		for !c.TryDelete() {
			c.Update()
		}
	}
	c.Close()
}
