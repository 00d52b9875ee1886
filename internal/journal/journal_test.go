package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func mustOpen(t *testing.T, dir string, opts ...Option) (*Log, []byte, []Record) {
	t.Helper()
	l, snap, tail, err := Open(dir, opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, snap, tail
}

func TestAppendReopen(t *testing.T) {
	dir := t.TempDir()
	l, snap, tail := mustOpen(t, dir)
	if snap != nil || len(tail) != 0 {
		t.Fatalf("fresh journal recovered snap=%v tail=%v", snap, tail)
	}
	var want [][]byte
	for i := 0; i < 10; i++ {
		data := []byte(fmt.Sprintf("record-%d", i))
		lsn, err := l.Append(data)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
		want = append(want, data)
	}
	// No Close: simulate a kill.
	l2, snap, tail := mustOpen(t, dir)
	defer l2.Close()
	if snap != nil {
		t.Fatalf("unexpected snapshot %q", snap)
	}
	if len(tail) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(tail), len(want))
	}
	for i, rec := range tail {
		if rec.LSN != uint64(i+1) || !bytes.Equal(rec.Data, want[i]) {
			t.Fatalf("record %d = {%d %q}, want {%d %q}", i, rec.LSN, rec.Data, i+1, want[i])
		}
	}
	// Appends continue past the recovered LSN.
	if lsn, err := l2.Append([]byte("more")); err != nil || lsn != 11 {
		t.Fatalf("post-recovery Append = %d, %v", lsn, err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 3, 7, 11} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, _, _ := mustOpen(t, dir)
			for i := 0; i < 3; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			sizeBefore := l.WALSize()
			if _, err := l.Append([]byte("the torn one")); err != nil {
				t.Fatal(err)
			}
			l.Close()
			// Tear the last record: keep only `cut` bytes of it.
			wal := filepath.Join(dir, walName)
			if err := os.Truncate(wal, sizeBefore+int64(cut)); err != nil {
				t.Fatal(err)
			}
			l2, _, tail := mustOpen(t, dir)
			defer l2.Close()
			if len(tail) != 3 {
				t.Fatalf("recovered %d records after torn tail, want 3", len(tail))
			}
			if got := l2.WALSize(); got != sizeBefore {
				t.Fatalf("WAL size after truncation = %d, want %d", got, sizeBefore)
			}
			// New appends land cleanly after the truncation point.
			if _, err := l2.Append([]byte("after")); err != nil {
				t.Fatal(err)
			}
			l3, _, tail := mustOpen(t, dir)
			defer l3.Close()
			if len(tail) != 4 || string(tail[3].Data) != "after" {
				t.Fatalf("post-tear append not recovered: %v", tail)
			}
		})
	}
}

func TestCorruptTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := mustOpen(t, dir)
	for i := 0; i < 2; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	size := l.WALSize()
	if _, err := l.Append([]byte("to be corrupted")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	wal := filepath.Join(dir, walName)
	f, err := os.OpenFile(wal, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the final record: the checksum fails
	// and the record is treated as torn.
	if _, err := f.WriteAt([]byte{0xff}, size+frameHeader+lsnSize); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l2, _, tail := mustOpen(t, dir)
	defer l2.Close()
	if len(tail) != 2 {
		t.Fatalf("recovered %d records after corrupt tail, want 2", len(tail))
	}
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := mustOpen(t, dir)
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint([]byte("snapshot-state")); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if l.WALSize() != 0 {
		t.Fatalf("WAL not truncated after checkpoint: %d bytes", l.WALSize())
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l2, snap, tail := mustOpen(t, dir)
	defer l2.Close()
	if string(snap) != "snapshot-state" {
		t.Fatalf("snapshot = %q", snap)
	}
	if len(tail) != 3 {
		t.Fatalf("recovered %d post-checkpoint records, want 3", len(tail))
	}
	for i, rec := range tail {
		if want := fmt.Sprintf("post-%d", i); string(rec.Data) != want {
			t.Fatalf("tail[%d] = %q, want %q", i, rec.Data, want)
		}
	}
	if got := l2.LSN(); got != 8 {
		t.Fatalf("LSN after recovery = %d, want 8", got)
	}
}

// TestCheckpointCrashWindow pins the rename-then-truncate crash
// window: when the process dies after the snapshot rename but before
// the WAL truncate, the stale WAL records (LSN <= snapshot LSN) are
// skipped on the next Open instead of being replayed on top of the
// snapshot.
func TestCheckpointCrashWindow(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := mustOpen(t, dir)
	for i := 0; i < 4; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the crash window by hand: write the snapshot frame
	// exactly as Checkpoint would, but leave wal.log untouched.
	if err := os.WriteFile(filepath.Join(dir, snapName), appendFrame(nil, l.LSN(), []byte("covers-4")), 0o644); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, snap, tail := mustOpen(t, dir)
	defer l2.Close()
	if string(snap) != "covers-4" {
		t.Fatalf("snapshot = %q", snap)
	}
	if len(tail) != 0 {
		t.Fatalf("stale WAL records replayed past the snapshot: %v", tail)
	}
	if l2.LSN() != 4 {
		t.Fatalf("LSN = %d, want 4", l2.LSN())
	}
	// The next append must not collide with the skipped records.
	if lsn, err := l2.Append([]byte("rec-5")); err != nil || lsn != 5 {
		t.Fatalf("Append = %d, %v", lsn, err)
	}
}

func TestCorruptSnapshotIsFatal(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := mustOpen(t, dir)
	if _, err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint([]byte("good")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	snapPath := filepath.Join(dir, snapName)
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a corrupt snapshot")
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := mustOpen(t, dir)
	l.Close()
	if _, err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

// TestJournalAppendAllocs pins Append at zero allocations for payloads
// of up to 16 KiB: the frame is built in the buffer the log reuses.
func TestJournalAppendAllocs(t *testing.T) {
	l, _, _ := mustOpen(t, t.TempDir())
	defer l.Close()
	for _, n := range []int{1, 300, 16 << 10} {
		data := bytes.Repeat([]byte{'x'}, n)
		got := testing.AllocsPerRun(50, func() {
			if _, err := l.Append(data); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Fatalf("Append of a %d-byte payload allocates %.0f per run, pinned at 0", n, got)
		}
	}
}

// TestAppendTooLarge appends a payload one byte past what a WAL frame
// may carry. The recovery scan would discard its frame as a torn tail,
// and every record after it, so Append must refuse it with ErrTooLarge,
// write nothing and keep appending.
func TestAppendTooLarge(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := mustOpen(t, dir)
	if _, err := l.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	size := l.WALSize()
	if lsn, err := l.Append(make([]byte, MaxRecordBytes-lsnSize+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized Append = LSN %d, %v; want ErrTooLarge", lsn, err)
	}
	if l.WALSize() != size || l.Broken() {
		t.Fatalf("refused Append left WAL size %d (was %d), broken %v", l.WALSize(), size, l.Broken())
	}
	if lsn, err := l.Append([]byte("second")); err != nil || lsn != 2 {
		t.Fatalf("Append after the refusal = LSN %d, %v; want 2", lsn, err)
	}
	l.Close()
	l2, _, tail := mustOpen(t, dir)
	defer l2.Close()
	var got []string
	for _, r := range tail {
		got = append(got, string(r.Data))
	}
	if fmt.Sprint(got) != "[first second]" {
		t.Fatalf("recovered %q, want [first second]", got)
	}
}

// TestCheckpointPastMaxRecordBytes checkpoints a snapshot larger than
// any WAL record may be. The snapshot frame is bounded by its file, so
// the next Open must load it, not fail on its length prefix.
func TestCheckpointPastMaxRecordBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("writes and reads back a 64 MiB snapshot")
	}
	dir := t.TempDir()
	l, _, _ := mustOpen(t, dir)
	if _, err := l.Append([]byte("covered")); err != nil {
		t.Fatal(err)
	}
	snap := make([]byte, MaxRecordBytes+1)
	snap[0], snap[len(snap)-1] = 'a', 'z'
	if err := l.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, got, tail, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after a %d-byte checkpoint: %v", len(snap), err)
	}
	defer l2.Close()
	if !bytes.Equal(got, snap) {
		t.Fatalf("recovered a %d-byte snapshot, want the %d bytes checkpointed", len(got), len(snap))
	}
	if len(tail) != 1 || tail[0].LSN != 2 || string(tail[0].Data) != "tail" {
		t.Fatalf("recovered tail %v, want LSN 2 \"tail\"", tail)
	}
}
