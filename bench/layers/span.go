package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one batch share the batch span as parent.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: no parent
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. Times are
// nanoseconds since the recorder was made.
type Recorder struct {
	base  time.Time
	Spans []Span
}

func NewRecorder(capacity int) *Recorder {
	return &Recorder{base: time.Now(), Spans: make([]Span, 0, capacity)}
}

// Now is the recorder's clock.
func (r *Recorder) Now() int64 { return int64(time.Since(r.base)) }

// Add records a finished span and returns its id.
func (r *Recorder) Add(parent int, layer, name string, start, end int64) int {
	id := len(r.Spans) + 1
	r.Spans = append(r.Spans, Span{id, parent, layer, name, start, end})
	return id
}

// SelfTimes returns each span's self time by id: its duration minus the
// part of it its direct children cover. Children of one parent do not
// overlap here (one goroutine records them in sequence), so the covered
// part is the sum of their durations.
func SelfTimes(spans []Span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.EndNs - s.StartNs
		if s.Parent != 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	return self
}

// SelfByName sums self time over spans of the same layer and name.
func SelfByName(spans []Span) map[string]int64 {
	self := SelfTimes(spans)
	sum := make(map[string]int64)
	for _, s := range spans {
		sum[s.Layer+"."+s.Name] += self[s.ID]
	}
	return sum
}

// Budget splits the in-process time of one wire operation over the layers
// that were measured in isolation. The shares are fractions of inproc and
// sum to 1 by construction: server_self is the remainder, which holds the
// server's own dispatch and counters and everything not yet explained, and
// may be negative when the parts overstate what they cost inside the
// server.
func Budget(inproc, loopback, proto, dict, persist float64) map[string]float64 {
	return map[string]float64{
		"budget.loopback_share":    loopback / inproc,
		"budget.proto_share":       proto / inproc,
		"budget.dict_share":        dict / inproc,
		"budget.persist_share":     persist / inproc,
		"budget.server_self_share": (inproc - loopback - proto - dict - persist) / inproc,
	}
}

// WriteTrace writes the spans as one JSON document.
func WriteTrace(path, workload string, seed int64, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"spans\":[", workload, seed)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"id\":%d,\"parent\":%d,\"layer\":%q,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}",
			s.ID, s.Parent, s.Layer, s.Name, s.StartNs, s.EndNs)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
