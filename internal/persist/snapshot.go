package persist

import (
	"errors"
	"os"
	"path/filepath"
	"time"

	"valois/internal/proto"
)

// appendSet encodes one snapshot binding as a canonical SET command.
func appendSet(dst []byte, key string, value []byte) ([]byte, error) {
	return proto.AppendCommand(dst, proto.Command{Verb: proto.VerbSet, Key: key, Value: value})
}

// SnapshotWriter streams one snapshot: a sequence of framed SET-command
// records written to a temporary file and installed atomically by
// Commit. Obtain one from Log.StartSnapshot; exactly one of Commit or
// Abort must be called.
type SnapshotWriter struct {
	l       *Log
	gen     uint64
	f       *os.File
	w       *writerAt
	tmpPath string
	scratch []byte
	frame   []byte
	done    bool
}

// StartSnapshot begins snapshot compaction. It seals the live AOF
// segment (flush, fsync, close) and opens the next generation's segment
// so appends continue uninterrupted, then hands back a writer for the
// snapshot file itself.
//
// The consistency contract the caller must honor: every entry passed to
// Add must come from a scan that STARTED AFTER StartSnapshot returned.
// Mutations appended to sealed segments were applied before the seal
// (valoisd appends after applying, under a per-key-stripe mutex), so such a
// scan observes their effects; mutations that race with the scan live in
// the new segment and are replayed over the snapshot — replay of SET and
// DELETE is idempotent, so either interleaving recovers the same state.
// The scan itself is a lock-free cursor traversal and never blocks
// writers.
func (l *Log) StartSnapshot() (*SnapshotWriter, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, errors.New("persist: log is closed")
	}
	if l.snap {
		l.mu.Unlock()
		return nil, errors.New("persist: snapshot already in progress")
	}
	// Seal the live segment: everything in it must be durable before the
	// snapshot that will replace it starts.
	if err := l.syncLocked(); err != nil {
		l.mu.Unlock()
		return nil, err
	}
	if err := l.f.Close(); err != nil {
		l.mu.Unlock()
		return nil, err
	}
	newGen := l.gen + 1
	f, err := os.OpenFile(filepath.Join(l.dir, aofName(newGen)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// Reopen the sealed segment so the log keeps appending; the
		// snapshot attempt is abandoned.
		if rf, rerr := os.OpenFile(filepath.Join(l.dir, aofName(l.gen)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); rerr == nil {
			l.f, l.w = rf, &writerAt{f: rf}
		}
		l.mu.Unlock()
		return nil, err
	}
	oldGen := l.gen
	l.gen = newGen
	l.f = f
	l.w = &writerAt{f: f}
	l.dirty = false
	l.snap = true
	l.mu.Unlock()

	tmpPath := filepath.Join(l.dir, snapName(newGen)+tmpSuffix)
	sf, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		l.mu.Lock()
		l.snap = false
		l.mu.Unlock()
		return nil, err
	}
	_ = oldGen // superseded generations are collected by Commit
	return &SnapshotWriter{l: l, gen: newGen, f: sf, w: &writerAt{f: sf}, tmpPath: tmpPath}, nil
}

// Add writes one live binding into the snapshot as a framed SET record —
// the identical encoding the AOF carries, so recovery has one decode
// path.
func (sw *SnapshotWriter) Add(key string, value []byte) error {
	payload, err := appendSet(sw.scratch[:0], key, value)
	if err != nil {
		return err
	}
	sw.scratch = payload[:0]
	framed := AppendRecord(sw.frame[:0], payload)
	sw.frame = framed[:0]
	return sw.w.Write(framed)
}

// Commit durably installs the snapshot: flush+fsync the temporary file,
// atomically rename it into place, fsync the directory, and then delete
// every superseded file (older snapshots and AOF segments before this
// generation).
func (sw *SnapshotWriter) Commit() error {
	if sw.done {
		return errors.New("persist: snapshot already finished")
	}
	sw.done = true
	defer sw.release()
	if err := sw.w.Flush(); err != nil {
		sw.discard()
		return err
	}
	if err := sw.f.Sync(); err != nil {
		sw.discard()
		return err
	}
	if err := sw.f.Close(); err != nil {
		sw.discard()
		return err
	}
	final := filepath.Join(sw.l.dir, snapName(sw.gen))
	if err := os.Rename(sw.tmpPath, final); err != nil {
		os.Remove(sw.tmpPath)
		return err
	}
	if err := syncDir(sw.l.dir); err != nil {
		return err
	}
	// The snapshot owns all history before its generation: collect it.
	snaps, aofs, err := scanDir(sw.l.dir)
	if err != nil {
		return err
	}
	for _, g := range snaps {
		if g < sw.gen {
			os.Remove(filepath.Join(sw.l.dir, snapName(g)))
		}
	}
	for _, g := range aofs {
		if g < sw.gen {
			os.Remove(filepath.Join(sw.l.dir, aofName(g)))
		}
	}
	sw.l.snapRuns.Add(1)
	sw.l.snapLast.Store(time.Now().Unix())
	return nil
}

// Abort discards the snapshot file. The AOF rotation stands — recovery
// simply replays the sealed segment along with the new one.
func (sw *SnapshotWriter) Abort() {
	if sw.done {
		return
	}
	sw.done = true
	sw.discard()
	sw.release()
}

func (sw *SnapshotWriter) discard() {
	sw.f.Close()
	os.Remove(sw.tmpPath)
}

func (sw *SnapshotWriter) release() {
	sw.l.mu.Lock()
	sw.l.snap = false
	sw.l.mu.Unlock()
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
