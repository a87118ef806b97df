package server_test

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"valois/internal/client"
	"valois/internal/linearize"
)

// This file holds the wire-level history recording shared by the
// loopback linearizability test and the chaos suite: operations issued
// through internal/client are timestamped with a process-wide atomic
// clock and recorded as linearize events, with operations whose
// response never arrived marked Lost (the ambiguous-retry case: the
// server may or may not have executed them).

// maxEventsPerKey keeps per-key subhistories under the checker's
// 63-event memoization cap, with slack for the final read-back pass.
const maxEventsPerKey = 56

// wireHist collects a wire-level operation history.
type wireHist struct {
	clock  atomic.Int64
	setIDs atomic.Int64 // unique value per SET, so reads identify writers
	perKey []atomic.Int64

	mu     sync.Mutex
	events []linearize.Event
}

func newWireHist(keys int) *wireHist {
	return &wireHist{perKey: make([]atomic.Int64, keys)}
}

func (h *wireHist) record(e linearize.Event) {
	h.mu.Lock()
	h.events = append(h.events, e)
	h.mu.Unlock()
}

// pickKey draws a key from rng that still has history budget, redirecting
// away from keys that already hit the checker's per-key cap. ok=false
// when every probed key is full (the caller skips the operation).
func (h *wireHist) pickKey(intn func(int) int) (int, bool) {
	for try := 0; try < 16; try++ {
		k := intn(len(h.perKey))
		if h.perKey[k].Add(1) <= maxEventsPerKey {
			return k, true
		}
		h.perKey[k].Add(-1)
	}
	return 0, false
}

// history returns the recorded events. Call only at quiescence.
func (h *wireHist) history() []linearize.Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]linearize.Event(nil), h.events...)
}

func wireKey(k int) string { return "wk:" + strconv.Itoa(k) }

// parseWireValue maps a stored value back to the int the history uses.
// Every value this suite stores is a decimal set id; anything else means
// the wire corrupted data on a path that must be fault-free.
func parseWireValue(v []byte) (int, error) {
	return strconv.Atoi(string(v))
}

// doWireGet issues a GET, recording a completed Find event or nothing
// on a transport error (a lost read has no effect on the history).
// fatal reports a malformed stored value — a data-integrity failure the
// caller must surface, not a transient to retry through.
func (h *wireHist) doWireGet(c *client.Client, k int) (err error, fatal bool) {
	start := h.clock.Add(1)
	v, found, err := c.Get(wireKey(k))
	end := h.clock.Add(1)
	if err != nil {
		return err, false
	}
	val := 0
	if found {
		if val, err = parseWireValue(v); err != nil {
			return err, true
		}
	}
	h.record(linearize.Event{Op: linearize.OpFind, Key: k, Value: val, OK: found, Start: start, End: end})
	return nil, false
}

// doWireSet issues a SET with a unique value, recording a completed
// event or a Lost one when the response did not arrive.
func (h *wireHist) doWireSet(c *client.Client, k int) error {
	id := int(h.setIDs.Add(1))
	start := h.clock.Add(1)
	err := c.Set(wireKey(k), []byte(strconv.Itoa(id)))
	end := h.clock.Add(1)
	if err != nil {
		h.record(linearize.Event{Op: linearize.OpUpsert, Key: k, Value: id, Start: start, Lost: true})
		return err
	}
	h.record(linearize.Event{Op: linearize.OpUpsert, Key: k, Value: id, OK: true, Start: start, End: end})
	return nil
}

// doWireDelete issues a DELETE, recording completed or Lost.
func (h *wireHist) doWireDelete(c *client.Client, k int) error {
	start := h.clock.Add(1)
	deleted, err := c.Delete(wireKey(k))
	end := h.clock.Add(1)
	if err != nil {
		h.record(linearize.Event{Op: linearize.OpDelete, Key: k, Start: start, Lost: true})
		return err
	}
	h.record(linearize.Event{Op: linearize.OpDelete, Key: k, OK: deleted, Start: start, End: end})
	return nil
}

// checkWireHistory runs the wire-spec checker and fails the test with a
// replayable context string (backend, seed) on any violation.
func checkWireHistory(t *testing.T, h *wireHist, context string) {
	t.Helper()
	events := h.history()
	res := linearize.CheckKV(events)
	if !res.OK {
		t.Errorf("%s: history of %d events NOT linearizable at key %d:", context, len(events), res.BadKey)
		for _, e := range res.BadHistory {
			t.Errorf("  %v", e)
		}
	}
}

// goroutineBaseline snapshots the live goroutine count before a test
// spawns its server and clients.
func goroutineBaseline() int { return runtime.NumGoroutine() }

// waitNoGoroutineLeak polls until the goroutine count settles back to
// the baseline (plus slack for runtime background goroutines), failing
// the test if it never does — a leaked connection handler, pump, or
// client goroutine holds the count up.
func waitNoGoroutineLeak(t *testing.T, baseline, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+slack {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d running, baseline %d (slack %d)", runtime.NumGoroutine(), baseline, slack)
}
