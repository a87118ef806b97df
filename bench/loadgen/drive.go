package loadgen

import (
	"context"
	"errors"
	"time"
)

// sweepDepth is the pipeline depth of the prefill and read-back sweeps,
// which are set-up work and not part of any workload's traffic.
const sweepDepth = 256

// sweep sends verb for every prefilled key and requires wantHit of each
// reply.
func sweep(c *Conn, w *Workload, verb Verb, wantHit bool) error {
	ops := make([]Op, 0, sweepDepth)
	var check Check
	if wantHit {
		check = func(_ int, hit bool, _ []uint32) error {
			if !hit {
				return errors.New("prefilled key missing")
			}
			return nil
		}
	}
	for k := 0; k < w.Keys; k++ {
		if w.Prefilled(uint32(k)) {
			ops = append(ops, Op{Verb: verb, Key: uint32(k)})
		}
		if len(ops) == sweepDepth || (k == w.Keys-1 && len(ops) > 0) {
			if err := c.Do(ops, check); err != nil {
				return err
			}
			ops = ops[:0]
		}
	}
	return nil
}

// Prefill binds every prefilled key.
func Prefill(c *Conn, w *Workload) error { return sweep(c, w, Set, false) }

// ReadBack requires every prefilled key to read back with its value. A
// scan workload has no GET request table and is not durable, so ReadBack
// is only called for GET workloads.
func ReadBack(c *Conn, w *Workload) error { return sweep(c, w, Get, true) }

// Oracle replays the stream's next n operations on c, alone, and checks
// every reply against the model.
func Oracle(c *Conn, w *Workload, s *Stream, m *Model, n int) error {
	ops := make([]Op, w.Depth)
	for done := 0; done < n; done += len(ops) {
		ops = ops[:min(w.Depth, n-done)]
		s.Fill(ops)
		if err := c.Do(ops, m.Checker(ops)); err != nil {
			return err
		}
	}
	return nil
}

// Run drives the closed loop on c until the deadline passes or ctx is
// cancelled: one batch of the workload's depth in flight at a time, the
// next sent only when the last reply of the previous one has been read.
// Each batch's round trip, write to last reply byte, is appended to *lat
// in nanoseconds when lat is not nil.
func Run(ctx context.Context, c *Conn, w *Workload, s *Stream, until time.Time, lat *[]int64) error {
	ops := make([]Op, w.Depth)
	for ctx.Err() == nil {
		s.Fill(ops)
		start := time.Now()
		if !start.Before(until) {
			return nil
		}
		if err := c.Do(ops, nil); err != nil {
			return err
		}
		if lat != nil {
			*lat = append(*lat, int64(time.Since(start)))
		}
	}
	return ctx.Err()
}
