// Package journal is the durability layer under the choreography
// store: an append-only, length-prefixed, checksummed write-ahead log
// of store mutations plus an atomically replaced snapshot file, so a
// store can be killed at any instant and reopened into an identical
// state.
//
// # On-disk layout
//
// A journal lives in one directory and owns two files:
//
//	wal.log       the write-ahead log: a sequence of framed records
//	snapshot.bin  the latest checkpoint, written via tmp+rename
//
// Every WAL record is framed as
//
//	[4-byte big-endian payload length][4-byte CRC-32 (IEEE) of payload][payload]
//
// and every payload starts with the record's 8-byte big-endian log
// sequence number (LSN) followed by the caller's opaque data. LSNs
// are assigned by Append, strictly increasing over the lifetime of
// the directory. The snapshot file holds exactly one frame of the
// same shape whose payload is the LSN of the last record the
// checkpoint covers, followed by the caller's opaque snapshot bytes.
//
// # Recovery semantics
//
// Open scans the WAL sequentially and stops at the first frame that
// is incomplete or fails its checksum — the torn tail a crash
// mid-append leaves behind. The torn tail is truncated away, not
// fatal: everything before it is returned for replay, and subsequent
// appends continue from the truncation point. Records whose LSN is
// not past the snapshot's LSN are skipped during recovery (they
// describe mutations the snapshot already contains; this is what
// makes the checkpoint's rename-then-truncate sequence crash-safe).
// A snapshot file that fails its checksum is reported as an error:
// snapshots are written to a temporary file and atomically renamed,
// so a damaged snapshot means real corruption, never a crash window.
//
// # Record size
//
// A WAL frame whose length prefix exceeds MaxRecordBytes reads as a
// torn tail, so Append refuses a payload that would need one with
// ErrTooLarge and writes nothing. The snapshot frame is bounded by its
// file's length instead, so a checkpoint of any size recovers.
//
// # Durability
//
// Append writes synchronously — the record is in the operating
// system's page cache before the call returns, so it survives a
// process kill unconditionally. Fsync on every append (surviving
// kernel crashes and power loss too) is opt-in via WithFsync;
// checkpoints and Close always fsync.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

const (
	walName     = "wal.log"
	snapName    = "snapshot.bin"
	snapTmpName = "snapshot.bin.tmp"

	// frameHeader is the per-record framing overhead: payload length
	// plus checksum.
	frameHeader = 8
	// lsnSize prefixes every payload.
	lsnSize = 8

	// MaxRecordBytes bounds one WAL record's payload, its LSN
	// included. A length prefix past this is treated as a torn/corrupt
	// tail rather than an allocation request, and Append refuses a
	// record that would need one.
	MaxRecordBytes = 64 << 20

	// keepFrameBytes bounds the frame buffer Append keeps between
	// calls: it frames payloads of up to 16 KiB, and a larger record is
	// framed in a buffer of its own that is dropped after the write.
	keepFrameBytes = frameHeader + lsnSize + 16<<10
)

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("journal: log closed")

// ErrTooLarge reports a record whose frame the recovery scan would
// discard as a torn tail (see MaxRecordBytes). Nothing is written and
// the log stays usable.
var ErrTooLarge = errors.New("journal: record too large")

// ErrPoisoned reports use of a log whose failed append could not be
// rolled back: the on-disk tail is in an unknown state, so every
// further Append and Checkpoint is refused. The owning store treats
// this as the signal to enter degraded read-only mode.
var ErrPoisoned = errors.New("journal: log poisoned by an earlier failed append")

// Record is one recovered WAL entry.
type Record struct {
	// LSN is the record's log sequence number.
	LSN uint64
	// Data is the caller's opaque payload.
	Data []byte
}

// Option configures Open.
type Option func(*Log)

// WithFsync makes every Append fsync the WAL before returning.
// Without it appends are synchronous writes (durable across a process
// kill) and fsync happens on Checkpoint and Close.
func WithFsync(on bool) Option {
	return func(l *Log) { l.fsync = on }
}

// Log is an open journal directory. All methods are safe for
// concurrent use.
type Log struct {
	dir   string
	fsync bool
	fs    fsys

	mu      sync.Mutex
	wal     file
	lsn     uint64 // last assigned LSN
	snapLSN uint64 // LSN covered by the current snapshot
	walLen  int64  // current WAL size in bytes
	buf     []byte // Append's reused frame buffer, at most keepFrameBytes
	closed  bool
	// broken poisons the log after a failed append could not be
	// rolled back: the on-disk tail is in an unknown state, so
	// writing anything after it would risk resurrecting a rejected
	// mutation or truncating acked ones on the next recovery.
	broken bool
}

// Open opens (creating if needed) the journal in dir and recovers its
// durable contents: snap is the latest checkpoint payload (nil when no
// checkpoint was ever taken) and tail the records appended after that
// checkpoint, in append order. A torn final record is discarded and
// truncated away; the log is positioned to append after the last good
// record.
func Open(dir string, opts ...Option) (l *Log, snap []byte, tail []Record, err error) {
	l = &Log{dir: dir, fs: defaultFS}
	if err := l.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("journal: %w", err)
	}
	for _, opt := range opts {
		opt(l)
	}
	snap, err = l.readSnapshot()
	if err != nil {
		return nil, nil, nil, err
	}
	tail, err = l.openWAL()
	if err != nil {
		return nil, nil, nil, err
	}
	return l, snap, tail, nil
}

// readSnapshot loads snapshot.bin, setting snapLSN and lsn.
func (l *Log) readSnapshot() ([]byte, error) {
	data, err := l.fs.ReadFile(filepath.Join(l.dir, snapName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	// Bounded by the file, not MaxRecordBytes: a checkpoint is written
	// whole through tmp+rename, so its length prefix is never torn.
	lsn, payload, n, ferr := parseFrame(data, len(data))
	if ferr != nil || n != len(data) {
		return nil, fmt.Errorf("journal: corrupt snapshot %s: %v", snapName, ferr)
	}
	l.snapLSN, l.lsn = lsn, lsn
	return payload, nil
}

// openWAL scans wal.log, truncates any torn tail, positions the file
// for appending and returns the records past the snapshot LSN.
func (l *Log) openWAL() ([]Record, error) {
	f, err := l.fs.OpenFile(filepath.Join(l.dir, walName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: reading %s: %w", walName, err)
	}
	tail, last, good := scanWAL(data, l.snapLSN)
	l.lsn = max(l.lsn, last)
	if good < len(data) {
		if err := f.Truncate(int64(good)); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: truncating torn tail of %s: %w", walName, err)
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	l.wal, l.walLen = f, int64(good)
	return tail, nil
}

// scanWAL parses a WAL image from its start and stops at the first
// incomplete or corrupt frame. It returns the records whose LSN is past
// snapLSN (copied out of data), the largest LSN of any intact frame (0
// when there is none) and good, the byte offset after the last intact
// frame: the length the torn tail is truncated to.
func scanWAL(data []byte, snapLSN uint64) (tail []Record, last uint64, good int) {
	for good < len(data) {
		lsn, payload, n, err := parseFrame(data[good:], MaxRecordBytes)
		if err != nil {
			break // torn or corrupt tail: keep what we have
		}
		good += n
		last = max(last, lsn)
		if lsn > snapLSN {
			// Copy: payload aliases the read buffer.
			tail = append(tail, Record{LSN: lsn, Data: append([]byte(nil), payload...)})
		}
	}
	return tail, last, good
}

// parseFrame decodes one frame from the head of data, returning the
// payload's LSN, the data after the LSN, and the total frame size. An
// incomplete or checksum-failing frame, or one whose payload length
// exceeds limit, is an error (the torn-tail signal — callers stop
// scanning there).
func parseFrame(data []byte, limit int) (lsn uint64, payload []byte, size int, err error) {
	if len(data) < frameHeader {
		return 0, nil, 0, errors.New("short header")
	}
	n := int(binary.BigEndian.Uint32(data))
	if n < lsnSize || n > limit {
		return 0, nil, 0, fmt.Errorf("implausible payload length %d", n)
	}
	if len(data) < frameHeader+n {
		return 0, nil, 0, errors.New("short payload")
	}
	body := data[frameHeader : frameHeader+n]
	if crc := binary.BigEndian.Uint32(data[4:]); crc != crc32.ChecksumIEEE(body) {
		return 0, nil, 0, errors.New("checksum mismatch")
	}
	return binary.BigEndian.Uint64(body), body[lsnSize:], frameHeader + n, nil
}

// appendHeader appends the frame header and LSN that precede data in
// the frame of one payload (LSN + data); data follows them on disk.
func appendHeader(buf []byte, lsn uint64, data []byte) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, uint32(lsnSize+len(data)))
	buf = append(buf, 0, 0, 0, 0) // the checksum, set below
	buf = binary.BigEndian.AppendUint64(buf, lsn)
	crc := crc32.Update(crc32.ChecksumIEEE(buf[start+frameHeader:]), crc32.IEEETable, data)
	binary.BigEndian.PutUint32(buf[start+4:], crc)
	return buf
}

// appendFrame appends the framed record of one payload to buf.
func appendFrame(buf []byte, lsn uint64, data []byte) []byte {
	return append(appendHeader(buf, lsn, data), data...)
}

// Append writes one record and returns its LSN. The write is
// synchronous; it is additionally fsynced when the log was opened
// WithFsync. On error the record is not durable AND not on disk: the
// rejected (possibly partial) frame is truncated away, so a later
// recovery can never resurrect a mutation the caller was told failed,
// and a retry reuses the LSN cleanly. If even the rollback fails the
// log is poisoned — every further Append and Checkpoint errors — so
// nothing is ever written after an unknown tail. A payload past
// MaxRecordBytes fails with ErrTooLarge before anything is written.
//
// The frame is built in a buffer the log reuses under its lock, so an
// append of a payload of up to 16 KiB allocates nothing.
func (l *Log) Append(data []byte) (uint64, error) {
	if lsnSize+len(data) > MaxRecordBytes {
		return 0, fmt.Errorf("%w: %d-byte payload, the limit is %d", ErrTooLarge, len(data), MaxRecordBytes-lsnSize)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.broken {
		return 0, ErrPoisoned
	}
	buf := l.buf
	if n := frameHeader + lsnSize + len(data); n > cap(buf) {
		if n > keepFrameBytes {
			buf = make([]byte, 0, n)
		} else {
			buf = make([]byte, 0, min(max(n, 2*cap(buf)), keepFrameBytes))
			l.buf = buf
		}
	}
	buf = appendFrame(buf[:0], l.lsn+1, data)
	if _, err := l.wal.Write(buf); err != nil {
		l.rewindLocked()
		return 0, fmt.Errorf("journal: append: %w", err)
	}
	if l.fsync {
		if err := l.wal.Sync(); err != nil {
			l.rewindLocked()
			return 0, fmt.Errorf("journal: append sync: %w", err)
		}
	}
	l.lsn++
	l.walLen += int64(len(buf))
	return l.lsn, nil
}

// rewindLocked rolls the WAL back to the last good record boundary
// after a failed append, poisoning the log when it cannot.
func (l *Log) rewindLocked() {
	if l.wal.Truncate(l.walLen) == nil {
		if _, err := l.wal.Seek(l.walLen, io.SeekStart); err == nil {
			return
		}
	}
	l.broken = true
}

// Checkpoint replaces the snapshot with snap — which must describe
// every mutation up to and including the last appended record — and
// truncates the WAL. The snapshot is written to a temporary file,
// fsynced and atomically renamed before the WAL is cut, so a crash at
// any point leaves either the old checkpoint (plus the full WAL) or
// the new one (plus an ignorable WAL prefix, skipped by LSN on the
// next Open).
//
// The caller is responsible for quiescing appends for the duration —
// a record appended between snap's serialization and this call would
// be truncated away without being covered (the store holds its
// persistence lock across both).
func (l *Log) Checkpoint(snap []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.broken {
		return ErrPoisoned
	}
	tmp := filepath.Join(l.dir, snapTmpName)
	f, err := l.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: checkpoint: %w", err)
	}
	// The header and the snapshot are written apart, so a checkpoint
	// never holds a second copy of the snapshot in memory.
	_, werr := f.Write(appendHeader(nil, l.lsn, snap))
	if werr == nil {
		_, werr = f.Write(snap)
	}
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("journal: checkpoint: %w", werr)
	}
	if err := l.fs.Rename(tmp, filepath.Join(l.dir, snapName)); err != nil {
		return fmt.Errorf("journal: checkpoint: %w", err)
	}
	l.fs.SyncDir(l.dir)
	// The snapshot now covers every appended record; cut the log. A
	// crash before the truncate leaves old records behind — harmless,
	// their LSNs are <= the snapshot's and Open skips them.
	if err := l.wal.Truncate(0); err != nil {
		return fmt.Errorf("journal: checkpoint: %w", err)
	}
	if _, err := l.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("journal: checkpoint: %w", err)
	}
	l.snapLSN, l.walLen = l.lsn, 0
	return nil
}

// Broken reports whether the log is poisoned: a failed append could
// not be rolled back, so the on-disk tail is unknown and every
// further Append and Checkpoint fails with ErrPoisoned.
func (l *Log) Broken() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.broken
}

// LSN returns the last assigned log sequence number.
func (l *Log) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// WALSize returns the current size of the write-ahead log in bytes —
// the replay debt a crash right now would incur; Checkpoint resets it.
func (l *Log) WALSize() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.walLen
}

// Close fsyncs and closes the log. Further appends fail with
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.wal.Sync()
	if cerr := l.wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: close: %w", err)
	}
	return nil
}
