package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"valois/internal/proto"
)

// Policy selects when appended records are fsynced to stable storage.
type Policy int

const (
	// PolicyNo never fsyncs explicitly; the OS writes pages back on its
	// own schedule. Fastest, weakest: a crash can lose everything since
	// the last OS writeback.
	PolicyNo Policy = iota
	// PolicyEverySec fsyncs once a second from a background goroutine:
	// a crash loses at most about a second of acknowledged writes.
	PolicyEverySec
	// PolicyAlways flushes and fsyncs inside every Append, before the
	// caller replies to its client: an acknowledged write is durable.
	PolicyAlways
)

// ParsePolicy maps the -fsync flag spellings to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "no":
		return PolicyNo, nil
	case "everysec", "":
		return PolicyEverySec, nil
	case "always":
		return PolicyAlways, nil
	}
	return 0, fmt.Errorf("persist: unknown fsync policy %q (want always, everysec, or no)", s)
}

// String returns the flag spelling of p.
func (p Policy) String() string {
	switch p {
	case PolicyNo:
		return "no"
	case PolicyEverySec:
		return "everysec"
	case PolicyAlways:
		return "always"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// File naming: one AOF segment and at most one snapshot per generation.
// A snapshot run seals segment g, starts segment g+1, and writes
// snapshot g+1 holding everything up to the seal; recovery loads the
// newest snapshot and replays every segment of that generation onward.
const (
	aofPattern  = "aof-%08d.log"
	snapPattern = "snapshot-%08d.snap"
	tmpSuffix   = ".tmp"
)

func aofName(gen uint64) string  { return fmt.Sprintf(aofPattern, gen) }
func snapName(gen uint64) string { return fmt.Sprintf(snapPattern, gen) }

// Stats is a snapshot of the log's counters (the aof_* / snapshot_*
// lines of server STATS).
type Stats struct {
	Records          int64 // records appended since Open
	Bytes            int64 // framed bytes appended since Open
	Fsyncs           int64 // explicit fsync calls on the AOF
	SnapshotRuns     int64 // completed snapshot compactions
	SnapshotLastUnix int64 // unix time of the last completed snapshot
	Replayed         int64 // records applied during recovery at Open
}

// RecoveryInfo reports what Open replayed.
type RecoveryInfo struct {
	SnapshotGen     uint64 // generation of the snapshot loaded (0 = none)
	SnapshotRecords int    // records applied from the snapshot
	TailRecords     int    // records replayed from AOF segments
	TornTail        bool   // the newest segment ended in a torn record (dropped)
}

// Replayed is the total number of records applied during recovery.
func (r RecoveryInfo) Replayed() int { return r.SnapshotRecords + r.TailRecords }

// Log is the durability pipeline for one server: an open AOF segment
// receiving framed command records, plus snapshot compaction. Append is
// safe for concurrent use; the caller provides any ordering it needs
// between applying a mutation and appending it (valoisd holds a
// per-key-stripe mutex across apply+append so replay order matches apply
// order per key).
type Log struct {
	dir    string
	policy Policy
	logf   func(format string, args ...any)

	mu     sync.Mutex // guards f/w/gen/snapping/closed and all file writes
	f      *os.File
	w      *writerAt
	gen    uint64
	snap   bool // a snapshot is in progress
	closed bool
	dirty  bool // bytes appended since the last fsync

	stop     chan struct{} // closes the everysec goroutine
	syncDone chan struct{}

	scratch []byte // Append's encode buffer, reused under mu
	frame   []byte // Append's frame buffer, reused under mu

	records   atomic.Int64
	bytes     atomic.Int64
	fsyncs    atomic.Int64
	snapRuns  atomic.Int64
	snapLast  atomic.Int64
	replayedN atomic.Int64
}

// writerAt is a minimal buffered writer; bufio.Writer would do, but we
// also need to know whether unflushed bytes exist without poking at
// Buffered() under races — everything here runs under Log.mu anyway.
type writerAt struct {
	f   *os.File
	buf []byte
}

func (w *writerAt) Write(p []byte) error {
	w.buf = append(w.buf, p...)
	if len(w.buf) >= 64<<10 {
		return w.Flush()
	}
	return nil
}

func (w *writerAt) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.f.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// Open opens (creating if needed) the durability directory, recovers its
// contents by calling apply for every surviving record — snapshot first,
// then the AOF tail, in append order — and leaves the log ready for
// Append. A torn final record is truncated away; interior corruption
// fails Open (see the package comment). logf may be nil.
func Open(dir string, policy Policy, apply func(proto.Command) error, logf func(format string, args ...any)) (*Log, RecoveryInfo, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var info RecoveryInfo
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, info, err
	}
	snaps, aofs, err := scanDir(dir)
	if err != nil {
		return nil, info, err
	}

	l := &Log{
		dir:      dir,
		policy:   policy,
		logf:     logf,
		stop:     make(chan struct{}),
		syncDone: make(chan struct{}),
	}

	// Load the newest snapshot, if any.
	var snapGen uint64
	if len(snaps) > 0 {
		snapGen = snaps[len(snaps)-1]
		n, err := replayFile(filepath.Join(dir, snapName(snapGen)), false, apply)
		if err != nil {
			return nil, info, fmt.Errorf("snapshot %s: %w", snapName(snapGen), err)
		}
		info.SnapshotGen = snapGen
		info.SnapshotRecords = n
	}

	// Replay every AOF segment of the snapshot's generation and later,
	// oldest first. Only the newest segment may end torn: older segments
	// are sealed (flushed and fsynced) before a newer one receives its
	// first record.
	var replay []uint64
	for _, g := range aofs {
		if g >= snapGen {
			replay = append(replay, g)
		}
	}
	for i, g := range replay {
		last := i == len(replay)-1
		n, err := replayFile(filepath.Join(dir, aofName(g)), last, apply)
		if err != nil {
			return nil, info, fmt.Errorf("aof %s: %w", aofName(g), err)
		}
		if n < 0 { // torn tail was truncated away
			n = -n - 1
			info.TornTail = true
		}
		info.TailRecords += n
	}

	// The live segment: the newest existing one, or a fresh segment for
	// the snapshot's generation (also covers the empty-directory case,
	// which starts at generation 1).
	l.gen = snapGen
	if len(replay) > 0 {
		l.gen = replay[len(replay)-1]
	}
	if l.gen == 0 {
		l.gen = 1
	}
	f, err := os.OpenFile(filepath.Join(dir, aofName(l.gen)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, info, err
	}
	l.f = f
	l.w = &writerAt{f: f}
	l.replayedN.Store(int64(info.Replayed()))

	if policy == PolicyEverySec {
		go l.syncLoop()
	} else {
		close(l.syncDone)
	}
	if info.Replayed() > 0 || info.TornTail {
		logf("persist: recovered %d records (%d snapshot + %d tail, torn tail: %v) from %s",
			info.Replayed(), info.SnapshotRecords, info.TailRecords, info.TornTail, dir)
	}
	return l, info, nil
}

// scanDir inventories the durability directory: sorted snapshot and AOF
// generations. Leftover temporary files (a snapshot that died before its
// rename) are removed.
func scanDir(dir string) (snaps, aofs []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) == tmpSuffix {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		var g uint64
		if _, err := fmt.Sscanf(name, aofPattern, &g); err == nil && name == aofName(g) {
			aofs = append(aofs, g)
			continue
		}
		if _, err := fmt.Sscanf(name, snapPattern, &g); err == nil && name == snapName(g) {
			snaps = append(snaps, g)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(aofs, func(i, j int) bool { return aofs[i] < aofs[j] })
	return snaps, aofs, nil
}

// replayFile applies every record of one log file. With tolerateTorn, a
// torn final record is dropped and the file truncated back to its intact
// prefix; the count is then returned as -(n+1) to signal the truncation.
// Without it (snapshots, sealed segments) any damage is an error.
func replayFile(path string, tolerateTorn bool, apply func(proto.Command) error) (int, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := NewRecordScanner(f)
	n := 0
	for {
		payload, err := sc.Next()
		if err == io.EOF {
			return n, nil
		}
		if errors.Is(err, ErrTornTail) {
			if !tolerateTorn {
				return n, err
			}
			// Drop the in-flight record: truncate back to the last intact
			// one so future appends extend a clean log.
			if err := f.Truncate(sc.Offset()); err != nil {
				return n, err
			}
			if err := f.Sync(); err != nil {
				return n, err
			}
			return -n - 1, nil
		}
		if err != nil {
			return n, err
		}
		cmd, err := proto.DecodeCommand(payload)
		if err != nil {
			return n, &CorruptError{Offset: sc.Offset(), Reason: "framed payload is not a command: " + err.Error()}
		}
		if err := apply(cmd); err != nil {
			return n, err
		}
		n++
	}
}

// Append frames cmd and appends it to the live AOF segment, fsyncing
// according to the policy. Under PolicyAlways the record is on stable
// storage when Append returns.
func (l *Log) Append(cmd proto.Command) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("persist: log is closed")
	}
	payload, err := proto.AppendCommand(l.scratch[:0], cmd)
	if err != nil {
		return err
	}
	l.scratch = payload[:0] // keep the (possibly grown) buffer
	framed := AppendRecord(l.frame[:0], payload)
	l.frame = framed[:0]
	if err := l.w.Write(framed); err != nil {
		return err
	}
	l.records.Add(1)
	l.bytes.Add(int64(len(framed)))
	l.dirty = true
	if l.policy == PolicyAlways {
		return l.syncLocked()
	}
	return nil
}

// syncLocked flushes the buffer and fsyncs the live segment. Caller
// holds l.mu.
func (l *Log) syncLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	l.fsyncs.Add(1)
	return nil
}

// Sync forces a flush+fsync of the live segment (used on shutdown and
// by tests).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.syncLocked()
}

// syncLoop is the PolicyEverySec background fsync: once a second, flush
// whatever Append buffered. It exits when Close closes l.stop.
func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			if err := l.Sync(); err != nil {
				l.logf("persist: background fsync: %v", err)
			}
		}
	}
}

// Close flushes, fsyncs, and closes the live segment and stops the
// background fsync goroutine. The Log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	err := l.syncLocked()
	l.closed = true
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.mu.Unlock()
	close(l.stop)
	<-l.syncDone
	return err
}

// Stats returns the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Records:          l.records.Load(),
		Bytes:            l.bytes.Load(),
		Fsyncs:           l.fsyncs.Load(),
		SnapshotRuns:     l.snapRuns.Load(),
		SnapshotLastUnix: l.snapLast.Load(),
		Replayed:         l.replayedN.Load(),
	}
}

// Dir returns the durability directory.
func (l *Log) Dir() string { return l.dir }
