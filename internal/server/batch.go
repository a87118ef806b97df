package server

import (
	"errors"
	"slices"

	"valois/internal/proto"
)

// Batched execution: the connection loop (conn.go) drains every
// fully-buffered request into a []batchEntry, execEntries runs them, and
// the reply phase encodes all outcomes into one buffer written with a
// single syscall. Execution, AOF appends and replies all follow request
// order, so a connection's pipeline reads exactly like the same requests
// sent one at a time: a RANGE observes every earlier write in its batch,
// and the log holds one connection's mutations in the order it sent
// them. Batching amortizes the socket reads and the write; nothing is
// amortized across commands, so no lock outlives one command.

// batchEntry is one request in a drained batch plus its outcome. The
// slice of entries is connection-owned scratch, reused across batches.
type batchEntry struct {
	cmd     proto.Command
	readErr error // parse outcome from the codec; nil for executable entries

	val        []byte // GET result
	found      bool   // GET hit / DELETE deleted
	err        error  // persist append failure (SERVER_ERROR) or errRangeUnordered
	rangeItems []kv   // RANGE result, a capped sub-slice of the conn's item scratch
	statItems  []Stat // STATS result
}

// errRangeUnordered marks a RANGE on a backend without ordered
// iteration; the reply phase turns it into the CLIENT_ERROR the
// one-at-a-time path always produced.
var errRangeUnordered = errors.New("range on unordered backend")

// execEntries executes a drained batch in request order. Each maximal
// run of consecutive GETs is one store.FindBatch, whose lookups
// linearize in request order too; its RANGEs append their items to the
// connection's scratch.
func (s *Server) execEntries(entries []batchEntry, sc *batchScratch) {
	for i := 0; i < len(entries); {
		e := &entries[i]
		switch {
		case e.readErr != nil:
		case e.cmd.Verb == proto.VerbGet:
			j := i + 1
			for j < len(entries) && entries[j].readErr == nil && entries[j].cmd.Verb == proto.VerbGet {
				j++
			}
			s.execGets(entries[i:j], sc)
			i = j
			continue
		case e.cmd.Verb == proto.VerbSet, e.cmd.Verb == proto.VerbDelete:
			s.execKeyed(e)
		default:
			s.execMisc(e, &sc.ranges)
		}
		i++
	}
}

// execGets executes a run of GETs as one store.FindBatch over the
// connection's scratch, so a warm run allocates nothing.
func (s *Server) execGets(run []batchEntry, sc *batchScratch) {
	n := len(run)
	keys := slices.Grow(sc.keys[:0], n)[:n]
	vals := slices.Grow(sc.vals[:0], n)[:n]
	oks := slices.Grow(sc.oks[:0], n)[:n]
	sc.keys, sc.vals, sc.oks = keys, vals, oks
	for i := range run {
		if s.panicHook != nil {
			s.panicHook(run[i].cmd)
		}
		keys[i] = run[i].cmd.Key
	}
	s.store.FindBatch(keys, vals, oks)
	hits := 0
	for i := range run {
		run[i].val, run[i].found = vals[i], oks[i]
		if oks[i] {
			hits++
		}
	}
	s.getHits.Add(int64(hits))
	s.getMisses.Add(int64(n - hits))
}

// execKeyed executes one SET or DELETE. With persistence on it holds
// its key's logMu stripe across its apply and its append — the ordering
// contract of persist.go — and no longer; the unlock is deferred so a
// panicking backend (see TestPanicIsolation) cannot leak the lock.
func (s *Server) execKeyed(e *batchEntry) {
	if s.log != nil {
		mu := &s.logMu[logStripe(e.cmd.Key)]
		mu.Lock()
		defer mu.Unlock()
	}
	if s.panicHook != nil {
		s.panicHook(e.cmd)
	}
	switch e.cmd.Verb {
	case proto.VerbSet:
		s.cmdSet.Add(1)
		s.store.Upsert(e.cmd.Key, e.cmd.Value)
		if s.log != nil {
			if err := s.log.Append(e.cmd); err != nil {
				s.persistErrs.Add(1)
				s.cfg.Logf("persist append: %v", err)
				e.err = err
			}
		}

	case proto.VerbDelete:
		deleted := s.store.Delete(e.cmd.Key)
		e.found = deleted
		if deleted {
			s.deleteHits.Add(1)
		} else {
			s.deleteMisses.Add(1)
		}
		// A miss mutates nothing and is not logged.
		if deleted && s.log != nil {
			if err := s.log.Append(proto.Command{Verb: proto.VerbDelete, Key: e.cmd.Key}); err != nil {
				s.persistErrs.Add(1)
				s.cfg.Logf("persist append: %v", err)
				e.err = err
			}
		}
	}
}

// execMisc executes a non-keyed command.
func (s *Server) execMisc(e *batchEntry, r *rangeScratch) {
	if s.panicHook != nil {
		s.panicHook(e.cmd)
	}
	switch e.cmd.Verb {
	case proto.VerbRange:
		s.cmdRange.Add(1)
		if s.ordered == nil {
			s.protoErrs.Add(1)
			e.err = errRangeUnordered
			return
		}
		e.rangeItems = s.rangeFrom(r, e.cmd.Key, e.cmd.Count)
	case proto.VerbStats:
		s.cmdStats.Add(1)
		e.statItems = s.Stats()
	case proto.VerbPing, proto.VerbQuit:
		// No work; the reply phase answers.
	}
}

// appendEntryReply encodes one entry's outcome. quit is set when the
// connection must close after the reply (QUIT, a fatal client error, or
// a panic already handled by the caller).
func (s *Server) appendEntryReply(codec proto.ServerCodec, dst []byte, e *batchEntry) (out []byte, quit bool) {
	if e.readErr != nil {
		var ce *proto.ClientError
		switch {
		case errors.As(e.readErr, &ce):
			s.protoErrs.Add(1)
			dst = codec.AppendClientError(dst, ce.Msg)
			return dst, ce.Fatal
		case errors.Is(e.readErr, proto.ErrUnknownVerb):
			s.protoErrs.Add(1)
			return codec.AppendUnknownVerb(dst), false
		default:
			// Transport error mid-command: the read deadline expired, the
			// peer reset, or shutdown closed the socket. Nothing to say.
			s.countNetErr(e.readErr)
			return dst, true
		}
	}
	switch e.cmd.Verb {
	case proto.VerbGet:
		dst = codec.AppendGetReply(dst, e.cmd.Key, e.val, e.found)
	case proto.VerbSet:
		if e.err != nil {
			// Applied but not durably logged: indeterminate for the
			// client (see persist.go), so SERVER_ERROR, not STORED.
			dst = codec.AppendServerError(dst, "durability failure")
		} else {
			dst = codec.AppendSetReply(dst)
		}
	case proto.VerbDelete:
		if e.err != nil {
			dst = codec.AppendServerError(dst, "durability failure")
		} else {
			dst = codec.AppendDeleteReply(dst, e.found)
		}
	case proto.VerbRange:
		if e.err != nil {
			dst = codec.AppendClientError(dst, "RANGE requires an ordered backend (skiplist)")
			break
		}
		dst = codec.AppendRangeHeader(dst, len(e.rangeItems))
		for _, item := range e.rangeItems {
			dst = codec.AppendRangeItem(dst, item.key, item.value)
		}
		dst = codec.AppendRangeTrailer(dst)
	case proto.VerbStats:
		dst = codec.AppendStatsHeader(dst, len(e.statItems))
		for _, st := range e.statItems {
			dst = codec.AppendStatItem(dst, st.Name, st.Value)
		}
		dst = codec.AppendStatsTrailer(dst)
	case proto.VerbPing:
		dst = codec.AppendPong(dst)
	case proto.VerbQuit:
		return codec.AppendQuit(dst), true
	}
	return dst, false
}
