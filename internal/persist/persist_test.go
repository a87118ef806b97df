package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"valois/internal/proto"
)

// memState replays a log into a plain map, standing in for the server's
// dictionary.
type memState map[string]string

func (m memState) apply(c proto.Command) error {
	switch c.Verb {
	case proto.VerbSet:
		m[c.Key] = string(c.Value)
	case proto.VerbDelete:
		delete(m, c.Key)
	default:
		return fmt.Errorf("unexpected verb %v in log", c.Verb)
	}
	return nil
}

func mustOpen(t *testing.T, dir string, policy Policy) (*Log, memState, RecoveryInfo) {
	t.Helper()
	st := memState{}
	l, info, err := Open(dir, policy, st.apply, t.Logf)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, st, info
}

func setCmd(k, v string) proto.Command {
	return proto.Command{Verb: proto.VerbSet, Key: k, Value: []byte(v)}
}

func delCmd(k string) proto.Command {
	return proto.Command{Verb: proto.VerbDelete, Key: k}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _, info := mustOpen(t, dir, PolicyAlways)
	if info.Replayed() != 0 {
		t.Fatalf("fresh dir replayed %d records", info.Replayed())
	}
	ops := []proto.Command{
		setCmd("a", "1"), setCmd("b", "2"), delCmd("a"),
		setCmd("c", "3"), setCmd("b", "22"), delCmd("missing"),
	}
	for _, c := range ops {
		if err := l.Append(c); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st := l.Stats()
	if st.Records != int64(len(ops)) || st.Fsyncs != int64(len(ops)) || st.Bytes == 0 {
		t.Errorf("stats = %+v, want %d records, %d fsyncs", st, len(ops), len(ops))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, st2, info2 := mustOpen(t, dir, PolicyAlways)
	defer l2.Close()
	if info2.TailRecords != len(ops) || info2.SnapshotRecords != 0 {
		t.Errorf("recovery = %+v, want %d tail records", info2, len(ops))
	}
	want := memState{"b": "22", "c": "3"}
	if fmt.Sprint(st2) != fmt.Sprint(want) {
		t.Errorf("recovered state %v, want %v", st2, want)
	}
}

// TestTornTailRecovery truncates the log at every byte boundary inside
// its final record: recovery must drop exactly that record, keep the
// intact prefix, and leave the file appendable.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := mustOpen(t, dir, PolicyAlways)
	if err := l.Append(setCmd("keep", "x")); err != nil {
		t.Fatal(err)
	}
	keptSize := fileSize(t, filepath.Join(dir, aofName(1)))
	if err := l.Append(setCmd("torn", "yyyy")); err != nil {
		t.Fatal(err)
	}
	fullSize := fileSize(t, filepath.Join(dir, aofName(1)))
	l.Close()
	full, err := os.ReadFile(filepath.Join(dir, aofName(1)))
	if err != nil {
		t.Fatal(err)
	}

	for cut := keptSize + 1; cut < fullSize; cut++ {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, aofName(1)), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			l, st, info := mustOpen(t, dir, PolicyAlways)
			if !info.TornTail || info.TailRecords != 1 {
				t.Fatalf("recovery = %+v, want 1 tail record with a torn tail", info)
			}
			if len(st) != 1 || st["keep"] != "x" {
				t.Fatalf("recovered state %v, want only keep=x", st)
			}
			// The torn bytes must be gone so new appends extend a clean log.
			if got := fileSize(t, filepath.Join(dir, aofName(1))); got != keptSize {
				t.Fatalf("file size after recovery = %d, want %d", got, keptSize)
			}
			if err := l.Append(setCmd("after", "z")); err != nil {
				t.Fatal(err)
			}
			l.Close()
			_, st2, info2 := mustOpen(t, dir, PolicyAlways)
			if info2.TornTail {
				t.Error("second recovery still sees a torn tail")
			}
			if st2["keep"] != "x" || st2["after"] != "z" || len(st2) != 2 {
				t.Errorf("state after re-append %v, want keep=x after=z", st2)
			}
		})
	}
}

// TestCorruptInteriorIsFatal flips a payload byte of the first record
// while a second intact record follows: recovery must refuse the log.
func TestCorruptInteriorIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := mustOpen(t, dir, PolicyAlways)
	if err := l.Append(setCmd("aa", "victim")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(setCmd("bb", "witness")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := filepath.Join(dir, aofName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[recordHeaderLen+2] ^= 0xFF // inside the first record's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir, PolicyAlways, memState{}.apply, nil)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open on interior corruption = %v, want *CorruptError", err)
	}
}

// TestSnapshotCompaction checks the full generation cycle: snapshot
// installs atomically, supersedes older files, and recovery is
// snapshot + tail.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := mustOpen(t, dir, PolicyAlways)
	for i := 0; i < 10; i++ {
		if err := l.Append(setCmd(fmt.Sprintf("k%02d", i), "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Append(delCmd("k00")); err != nil {
		t.Fatal(err)
	}

	sw, err := l.StartSnapshot()
	if err != nil {
		t.Fatalf("StartSnapshot: %v", err)
	}
	// Appends during the snapshot go to the rotated segment.
	if err := l.Append(setCmd("during", "snap")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		if err := sw.Add(fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if st := l.Stats(); st.SnapshotRuns != 1 || st.SnapshotLastUnix == 0 {
		t.Errorf("stats after snapshot = %+v", st)
	}
	// Generation 1 files must be gone; generation 2 snapshot + aof present.
	if _, err := os.Stat(filepath.Join(dir, aofName(1))); !os.IsNotExist(err) {
		t.Errorf("aof gen 1 still present (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(2))); err != nil {
		t.Errorf("snapshot gen 2 missing: %v", err)
	}
	if err := l.Append(delCmd("k01")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, st, info := mustOpen(t, dir, PolicyAlways)
	if info.SnapshotGen != 2 || info.SnapshotRecords != 9 || info.TailRecords != 2 {
		t.Errorf("recovery = %+v, want gen 2, 9 snapshot records, 2 tail records", info)
	}
	if len(st) != 9 || st["during"] != "snap" || st["k01"] != "" || st["k02"] != "v" {
		t.Errorf("recovered state %v", st)
	}
}

// TestSnapshotAbortAndTmpCleanup: an aborted snapshot leaves recovery
// working off the sealed segment chain, and a leftover .tmp from a
// crashed snapshot is removed and ignored.
func TestSnapshotAbortAndTmpCleanup(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := mustOpen(t, dir, PolicyAlways)
	if err := l.Append(setCmd("a", "1")); err != nil {
		t.Fatal(err)
	}
	sw, err := l.StartSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Add("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	sw.Abort()
	if err := l.Append(setCmd("b", "2")); err != nil {
		t.Fatal(err)
	}
	// Simulate a snapshot that died mid-write on a later run.
	if err := os.WriteFile(filepath.Join(dir, snapName(3)+tmpSuffix), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, st, info := mustOpen(t, dir, PolicyAlways)
	if info.SnapshotGen != 0 || info.TailRecords != 2 {
		t.Errorf("recovery = %+v, want no snapshot and 2 tail records", info)
	}
	if st["a"] != "1" || st["b"] != "2" {
		t.Errorf("recovered state %v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName(3)+tmpSuffix)); !os.IsNotExist(err) {
		t.Errorf("leftover tmp snapshot not removed (err=%v)", err)
	}
	// A second snapshot after the abort must succeed (the in-progress
	// flag was released).
	l2, _, _ := mustOpen(t, dir, PolicyAlways)
	defer l2.Close()
	sw2, err := l2.StartSnapshot()
	if err != nil {
		t.Fatalf("snapshot after abort: %v", err)
	}
	if err := sw2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPolicies exercises the everysec goroutine lifecycle and the no
// policy's flush-on-close.
func TestPolicies(t *testing.T) {
	for _, policy := range []Policy{PolicyNo, PolicyEverySec} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, _, _ := mustOpen(t, dir, policy)
			for i := 0; i < 100; i++ {
				if err := l.Append(setCmd(fmt.Sprintf("k%d", i), "v")); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			_, st, _ := mustOpen(t, dir, policy)
			if len(st) != 100 {
				t.Errorf("recovered %d keys, want 100 (close must flush)", len(st))
			}
		})
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"no": PolicyNo, "everysec": PolicyEverySec, "always": PolicyAlways, "": PolicyEverySec} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("ParsePolicy accepted garbage")
	}
}

// TestScannerClassification drives the scanner over hand-built streams
// to pin the torn-vs-corrupt boundary.
func TestScannerClassification(t *testing.T) {
	rec := func(p string) []byte { return AppendRecord(nil, []byte(p)) }
	read := func(data []byte) ([]string, error) {
		sc := NewRecordScanner(bytes.NewReader(data))
		var out []string
		for {
			p, err := sc.Next()
			if err == io.EOF {
				return out, nil
			}
			if err != nil {
				return out, err
			}
			out = append(out, string(p))
		}
	}

	// Clean stream.
	got, err := read(append(rec("one"), rec("two")...))
	if err != nil || len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("clean stream = %v, %v", got, err)
	}

	// Oversized length field that runs past EOF: torn.
	bad := make([]byte, recordHeaderLen)
	binary.LittleEndian.PutUint32(bad[0:4], MaxRecordPayload+1)
	if _, err := read(append(rec("ok"), bad...)); !errors.Is(err, ErrTornTail) {
		t.Errorf("oversized tail length = %v, want ErrTornTail", err)
	}

	// Oversized length field with data after it: corrupt.
	var ce *CorruptError
	if _, err := read(append(append(rec("ok"), bad...), make([]byte, 64)...)); !errors.As(err, &ce) {
		t.Errorf("oversized interior length = %v, want *CorruptError", err)
	}

	// CRC mismatch at the very end: torn. CRC mismatch mid-stream: corrupt.
	flipped := rec("payload")
	flipped[len(flipped)-1] ^= 1
	if _, err := read(append(rec("ok"), flipped...)); !errors.Is(err, ErrTornTail) {
		t.Errorf("flipped final = %v, want ErrTornTail", err)
	}
	if _, err := read(append(append(rec("ok"), flipped...), rec("later")...)); !errors.As(err, &ce) {
		t.Errorf("flipped interior = %v, want *CorruptError", err)
	}
}

func fileSize(t *testing.T, path string) int {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return int(fi.Size())
}
