package valois_test

import (
	"fmt"

	"valois"
)

func ExampleList() {
	l := valois.NewList[string](valois.GC)
	c := l.Cursor()
	c.Insert("world")
	c.Reset()
	c.Insert("hello")
	c.Reset()
	for !c.End() {
		fmt.Println(c.Item())
		c.Next()
	}
	c.Close()
	// Output:
	// hello
	// world
}

func ExampleCursor_onDeleted() {
	// Cell persistence (paper §2.2): a cursor survives deletion of the
	// item it is visiting.
	l := valois.NewList[string](valois.RC)
	w := l.Cursor()
	w.Insert("b")
	w.Reset()
	w.Insert("a")

	parked := l.Cursor() // visiting "a"
	deleter := l.Cursor()
	deleter.TryDelete() // removes "a"
	deleter.Close()

	fmt.Println(parked.OnDeleted(), parked.Item())
	parked.Next()
	fmt.Println(parked.Item())
	parked.Close()
	w.Close()
	// Output:
	// true a
	// b
}

func ExampleNewSortedListDict() {
	d := valois.NewSortedListDict[int, string](valois.GC)
	d.Insert(2, "two")
	d.Insert(1, "one")
	d.Insert(2, "TWO") // duplicate: rejected, value not replaced
	v, ok := d.Find(2)
	fmt.Println(v, ok)
	d.Range(func(k int, v string) bool {
		fmt.Println(k, v)
		return true
	})
	// Output:
	// two true
	// 1 one
	// 2 two
}

func ExampleNewHashDict() {
	d := valois.NewHashDict[string, int](64, valois.GC, valois.HashString)
	d.Insert("x", 1)
	d.Insert("y", 2)
	d.Delete("x")
	_, okX := d.Find("x")
	vy, okY := d.Find("y")
	fmt.Println(okX, vy, okY)
	// Output:
	// false 2 true
}

func ExampleOrderedDictionary_rangeFrom() {
	d := valois.NewSkipListDict[int, string](valois.GC)
	for _, k := range []int{40, 10, 30, 20} {
		d.Insert(k, fmt.Sprintf("v%d", k))
	}
	d.RangeFrom(20, func(k int, v string) bool {
		fmt.Println(k, v)
		return k < 30 // stop after 30
	})
	// Output:
	// 20 v20
	// 30 v30
}

func ExampleNewBSTDict() {
	d := valois.NewBSTDict[int, string](valois.GC)
	d.Insert(2, "b")
	d.Insert(1, "a")
	d.Insert(3, "c")
	d.Delete(2) // interior deletion (two children)
	d.Range(func(k int, v string) bool {
		fmt.Println(k, v)
		return true
	})
	// Output:
	// 1 a
	// 3 c
}

func ExampleNewPriorityQueue() {
	pq := valois.NewPriorityQueue[int, string](valois.GC)
	pq.Insert(30, "low")
	pq.Insert(10, "urgent")
	pq.Insert(20, "soon")
	for {
		p, v, ok := pq.DeleteMin()
		if !ok {
			break
		}
		fmt.Println(p, v)
	}
	// Output:
	// 10 urgent
	// 20 soon
	// 30 low
}
