package server

import (
	"fmt"
	"testing"

	"valois/internal/proto"
)

// heldStripes reports which logMu stripes are locked right now.
func (s *Server) heldStripes() []int {
	var held []int
	for i := range s.logMu {
		if s.logMu[i].TryLock() {
			s.logMu[i].Unlock()
		} else {
			held = append(held, i)
		}
	}
	return held
}

// TestLogStripeHeldForOneMutation: with persistence on, a mutation runs
// holding exactly its key's logMu stripe — the same one for every
// mutation of that key — a GET holds none, and nothing stays locked
// afterwards, not even when the backend panics mid-mutation.
func TestLogStripeHeldForOneMutation(t *testing.T) {
	s := newTestServer(t, Config{PersistDir: t.TempDir(), FsyncPolicy: "no"})

	var during []int
	s.panicHook = func(cmd proto.Command) {
		during = s.heldStripes()
		if cmd.Key == "boom" {
			panic("injected dispatch panic")
		}
	}
	exec := func(verb proto.Verb, key string) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		s.execKeyed(&batchEntry{cmd: proto.Command{Verb: verb, Key: key, Value: []byte("v")}})
		return false
	}

	stripes := make(map[int]bool)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("k%02d", i)
		want := fmt.Sprint([]int{logStripe(key)})
		stripes[logStripe(key)] = true
		for _, verb := range []proto.Verb{proto.VerbSet, proto.VerbDelete, proto.VerbDelete} { // hit, then miss
			exec(verb, key)
			if got := fmt.Sprint(during); got != want {
				t.Fatalf("%s %s ran holding stripes %s, want %s", verb, key, got, want)
			}
		}
		exec(proto.VerbGet, key)
		if len(during) != 0 {
			t.Fatalf("GET %s ran holding stripes %v, want none", key, during)
		}
	}
	if len(stripes) < logStripes/2 {
		t.Errorf("64 keys landed on %d of %d stripes: the hash is not spreading them", len(stripes), logStripes)
	}

	if !exec(proto.VerbSet, "boom") {
		t.Fatal("the hook did not panic")
	}
	if got := fmt.Sprint(during); got != fmt.Sprint([]int{logStripe("boom")}) {
		t.Errorf("SET boom panicked holding stripes %s, want [%d]", got, logStripe("boom"))
	}
	if held := s.heldStripes(); len(held) != 0 {
		t.Errorf("stripes %v still locked after a panic and %d mutations", held, 3*64)
	}
}
