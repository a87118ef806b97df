package loadgen

import "math/rand"

// Verb is the kind of one operation.
type Verb uint8

const (
	Get Verb = iota
	Set
	Del
	Range
)

// Op is one operation of a workload's stream: a verb on a key index.
type Op struct {
	Verb Verb
	Key  uint32
}

// Stream is a workload's seeded operation stream for one connection. The
// same (workload, seed, conn) always yields the same operations: math/rand
// fixes the sequence of a seeded source across Go releases.
type Stream struct {
	w    *Workload
	rng  *rand.Rand
	zipf *rand.Zipf
}

// NewStream returns connection conn's stream for the given seed.
func NewStream(w *Workload, seed int64, conn int) *Stream {
	s := &Stream{w: w, rng: rand.New(rand.NewSource(seed*1000003 + int64(conn)))}
	if w.ZipfS > 0 {
		s.zipf = rand.NewZipf(s.rng, w.ZipfS, 1, uint64(w.Keys-1))
	}
	return s
}

// Next returns the stream's next operation.
func (s *Stream) Next() Op {
	var op Op
	switch p := s.rng.Intn(100); {
	case p < s.w.ReadPct:
		if s.w.Scan {
			op.Verb = Range
		}
	case p < s.w.ReadPct+s.w.SetPct:
		op.Verb = Set
	default:
		op.Verb = Del
	}
	if s.zipf != nil {
		op.Key = uint32(s.zipf.Uint64())
	} else {
		op.Key = uint32(s.rng.Intn(s.w.Keys))
	}
	return op
}

// Fill overwrites ops with the stream's next len(ops) operations.
func (s *Stream) Fill(ops []Op) {
	for i := range ops {
		ops[i] = s.Next()
	}
}
