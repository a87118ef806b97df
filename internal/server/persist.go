package server

import (
	"errors"
	"fmt"
	"time"

	"valois/internal/persist"
	"valois/internal/proto"
)

// Durability wiring. When Config.PersistDir is set, the server opens an
// append-only log (internal/persist) at construction, recovers state
// from it (latest snapshot + AOF tail), and from then on appends every
// applied mutation to it.
//
// Ordering contract: the append happens AFTER the mutation is applied to
// the dictionary, and both happen under the key's logMu stripe. The mutex
// is what makes recovery linearizable — without it, two racing SETs of
// the same key could apply in one order and land in the log in the other,
// and a pre-crash GET that observed the first order would make the
// recovered history unlinearizable. Only same-key mutations need the
// order, so logMu is striped by key hash (logStripe) and taken only on
// the mutation path: GETs and RANGEs still run purely on the lock-free
// structure, and mutations of different stripes never serialize against
// each other.
//
// The mutation path itself lives in batch.go (execKeyed): a batch runs
// in request order and each mutation takes its stripe for its own apply
// and append only, so a deep pipeline never holds a stripe's other
// writers behind a whole batch, and the log keeps one connection's
// mutations in the order it sent them.
//
// If the append itself fails (disk full, log closed mid-shutdown), the
// in-memory apply has already happened: memory and disk have diverged.
// The client gets SERVER_ERROR — which the chaos harness records as a
// Lost (indeterminate) operation, keeping its linearizability accounting
// sound — and the divergence is counted in persist_errors.

// openPersist is called by New when cfg.PersistDir is set: it replays
// existing state into the freshly created dictionary and leaves the log
// open for appends.
func (s *Server) openPersist() error {
	policy, err := persist.ParsePolicy(s.cfg.FsyncPolicy)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	log, info, err := persist.Open(s.cfg.PersistDir, policy, s.applyRecovered, s.cfg.Logf)
	if err != nil {
		return err
	}
	s.log = log
	s.replayed.Store(int64(info.Replayed()))
	s.recovery = info
	return nil
}

// applyRecovered applies one replayed log record. It runs during New,
// strictly before any connection exists, so it writes to the dictionary
// directly without logMu or re-appending.
func (s *Server) applyRecovered(cmd proto.Command) error {
	switch cmd.Verb {
	case proto.VerbSet:
		s.store.Upsert(cmd.Key, cmd.Value)
	case proto.VerbDelete:
		s.store.Delete(cmd.Key)
	default:
		return fmt.Errorf("server: log record with non-mutation verb %s", cmd.Verb)
	}
	return nil
}

// Snapshot runs one snapshot compaction cycle: rotate the AOF, then
// stream the live bindings into the snapshot file via the backend's
// lock-free cursor scan (Range; the hash backend scans bucket by bucket),
// and atomically install it. Writers are never blocked — the scan starts
// after the rotation, which is exactly the consistency contract
// persist.StartSnapshot documents.
func (s *Server) Snapshot() error {
	if s.log == nil {
		return errors.New("server: persistence not enabled")
	}
	sw, err := s.log.StartSnapshot()
	if err != nil {
		return err
	}
	var addErr error
	s.store.Range(func(k string, v []byte) bool {
		addErr = sw.Add(k, v)
		return addErr == nil
	})
	if addErr != nil {
		sw.Abort()
		return addErr
	}
	return sw.Commit()
}

// snapshotLoop runs Snapshot every cfg.SnapshotInterval until Shutdown
// closes snapStop. Failures are logged and the loop keeps going: a
// failed snapshot leaves the rotated AOF chain intact and replayable.
func (s *Server) snapshotLoop() {
	defer s.snapWG.Done()
	t := time.NewTicker(s.cfg.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-s.snapStop:
			return
		case <-t.C:
			if err := s.Snapshot(); err != nil {
				s.cfg.Logf("snapshot: %v", err)
			}
		}
	}
}

// stopSnapshots halts the background snapshot loop and waits for any
// in-flight snapshot to finish, so the log can be closed safely.
func (s *Server) stopSnapshots() {
	s.snapStopOnce.Do(func() { close(s.snapStop) })
	s.snapWG.Wait()
}

// persistStats contributes the durability lines to STATS. All zeros with
// persistence disabled, so clients can probe unconditionally.
func (s *Server) persistStats() []Stat {
	var ps persist.Stats
	if s.log != nil {
		ps = s.log.Stats()
	}
	n := func(v int64) string { return fmt.Sprintf("%d", v) }
	return []Stat{
		{"aof_records", n(ps.Records)},
		{"aof_bytes", n(ps.Bytes)},
		{"aof_fsyncs", n(ps.Fsyncs)},
		{"snapshot_runs", n(ps.SnapshotRuns)},
		{"snapshot_last_unix", n(ps.SnapshotLastUnix)},
		{"recovery_replayed", n(s.replayed.Load())},
		{"persist_errors", n(s.persistErrs.Load())},
	}
}
