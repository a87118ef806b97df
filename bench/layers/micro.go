package main

import (
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"valois/bench/loadgen"
	"valois/internal/core"
	"valois/internal/mm"
	"valois/internal/persist"
	"valois/internal/proto"
)

// reps is how often each microbenchmark loop is timed; the median is
// reported.
const reps = 5

func medianOf(f func() time.Duration) time.Duration {
	d := make([]time.Duration, reps)
	for i := range d {
		d[i] = f()
	}
	slices.Sort(d)
	return d[reps/2]
}

// hopNs times Cursor.Next over a bare core.List of 4096 cells under the
// workload's memory mode: what one traversal hop costs with nothing on
// top.
func hopNs(mode mm.Mode) float64 {
	const cells, sweeps = 4096, 64
	l := core.New(mm.NewManager[int](mode))
	defer l.Close()
	c := l.NewCursor()
	for i := 0; i < cells; i++ {
		c.Reset()
		q, a := l.AllocInsertNodes(i)
		if !c.TryInsert(q, a) {
			panic("uncontended TryInsert failed")
		}
		l.ReleaseNodes(q, a)
	}
	c.Close()
	d := medianOf(func() time.Duration {
		start := time.Now()
		for s := 0; s < sweeps; s++ {
			c := l.NewCursor()
			for c.Next() {
			}
			c.Close()
		}
		return time.Since(start)
	})
	return float64(d) / (cells * sweeps)
}

// sink keeps the loads of the ebr SafeRead loop from being optimised away.
var sink *mm.Node[int]

// mmNs times the memory manager's primitives, through the Manager
// interface, under the workload's mode: an Alloc/Release pair (what an
// insert pays per cell, twice per overwrite); what a traversal hop pays,
// a SafeRead/Release pair under gc and rc and a SafeRead alone under an
// epoch pin; and a Pin/Unpin pair where the mode has epochs (ebr only,
// else 0).
func mmNs(mode mm.Mode) (allocRelease, safeReadRelease, pinUnpin float64) {
	const n = 1 << 18
	m := mm.NewManager[int](mode)
	allocRelease = float64(medianOf(func() time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			m.Release(m.Alloc())
		}
		return time.Since(start)
	})) / n

	var p atomic.Pointer[mm.Node[int]]
	held := m.Alloc()
	p.Store(held)
	pinner, epochs := m.(mm.Pinner)
	safeReadRelease = float64(medianOf(func() time.Duration {
		start := time.Now()
		if epochs {
			// Under a pin a traversal reference is a plain load and is
			// never released; the pin is what protects the cell.
			g := pinner.Pin()
			for i := 0; i < n; i++ {
				sink = m.SafeRead(&p)
			}
			pinner.Unpin(g)
		} else {
			for i := 0; i < n; i++ {
				m.Release(m.SafeRead(&p))
			}
		}
		return time.Since(start)
	})) / n
	sink = nil
	m.Release(held)

	if epochs {
		pinUnpin = float64(medianOf(func() time.Duration {
			start := time.Now()
			for i := 0; i < n; i++ {
				pinner.Unpin(pinner.Pin())
			}
			return time.Since(start)
		})) / n
	}
	return allocRelease, safeReadRelease, pinUnpin
}

// persistNs appends the replay's mutations, in order, to a fresh log under
// the everysec policy, closes it, and recovers it again. It returns the
// time per appended and per recovered record and the exact framed bytes
// per record.
func persistNs(tmp string, tab *loadgen.Tables, mutations []loadgen.Op) (appendNs, recoverNs, bytesPerRecord float64, err error) {
	dir, err := os.MkdirTemp(tmp, "persist-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	discard := func(proto.Command) error { return nil }
	log, _, err := persist.Open(dir, persist.PolicyEverySec, discard, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	for _, op := range mutations {
		cmd := proto.Command{Verb: proto.VerbDelete, Key: tab.Keys[op.Key]}
		if op.Verb == loadgen.Set {
			cmd.Verb, cmd.Value = proto.VerbSet, tab.Vals[op.Key]
		}
		if err := log.Append(cmd); err != nil {
			log.Close()
			return 0, 0, 0, err
		}
	}
	appendNs = float64(time.Since(start)) / float64(len(mutations))
	st := log.Stats()
	bytesPerRecord = float64(st.Bytes) / float64(st.Records)
	if err := log.Close(); err != nil {
		return 0, 0, 0, err
	}

	start = time.Now()
	log, info, err := persist.Open(dir, persist.PolicyEverySec, discard, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	recoverNs = float64(time.Since(start)) / float64(len(mutations))
	if info.Replayed() != len(mutations) {
		log.Close()
		return 0, 0, 0, fmt.Errorf("recovered %d of %d appended records", info.Replayed(), len(mutations))
	}
	return appendNs, recoverNs, bytesPerRecord, log.Close()
}
