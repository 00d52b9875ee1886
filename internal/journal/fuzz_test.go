package journal

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// walSeeds are the seed WAL images of both fuzz targets: empty and
// garbage input, a valid single-record WAL, a truncated one, one with
// a torn second frame and one with a corrupt checksum.
func walSeeds() [][]byte {
	valid := appendFrame(nil, 1, []byte("record-one"))
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)-1] ^= 0xff
	return [][]byte{
		{},
		{0x7f, 0x3a, 0x99},
		valid,
		valid[:len(valid)-3],
		append(append([]byte{}, valid...), appendFrame(nil, 2, []byte("record-two"))[:5]...),
		flipped,
	}
}

// FuzzJournalOpen feeds arbitrary bytes to the recovery path as a
// wal.log: Open must either recover a clean prefix (truncating any
// torn tail) or fail with an error — never panic — and a second Open
// of the recovered directory must succeed and report the same state
// (recovery is idempotent).
func FuzzJournalOpen(f *testing.F) {
	for _, wal := range walSeeds() {
		f.Add(wal)
	}

	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		l, snap, tail, err := Open(dir)
		if err != nil {
			// A bare WAL (no snapshot file) must always be recoverable:
			// the scanner stops at the first torn or corrupt frame.
			t.Fatalf("Open on arbitrary wal.log errored: %v", err)
		}
		if snap != nil {
			t.Fatalf("Open invented a snapshot from nothing")
		}
		lsn := l.LSN()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		// Recovery must be idempotent: reopening yields the same tail.
		l2, _, tail2, err := Open(dir)
		if err != nil {
			t.Fatalf("second Open failed after recovery: %v", err)
		}
		defer l2.Close()
		if l2.LSN() != lsn {
			t.Fatalf("LSN changed across reopen: %d then %d", lsn, l2.LSN())
		}
		if len(tail2) != len(tail) {
			t.Fatalf("recovered %d records, reopen sees %d", len(tail), len(tail2))
		}
		for i := range tail {
			if tail[i].LSN != tail2[i].LSN || !bytes.Equal(tail[i].Data, tail2[i].Data) {
				t.Fatalf("record %d differs across reopen", i)
			}
		}

		// The recovered log must accept appends.
		if _, err := l2.Append([]byte("post-recovery")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
	})
}

// FuzzScanWAL runs the scan Open applies to wal.log without the file
// system, so a short fuzz run covers far more inputs than
// FuzzJournalOpen. For any bytes and snapshot LSN the scan must not
// panic and must stop inside the data; rescanning the prefix it keeps
// must give the same result, so truncating the torn tail is
// idempotent; and that prefix plus one frame at the next LSN must scan
// to exactly one more record, so the recovered log accepts appends.
func FuzzScanWAL(f *testing.F) {
	for _, wal := range walSeeds() {
		f.Add(wal, uint64(0))
	}
	// A multi-record log whose snapshot covers its first two records.
	var multi []byte
	for lsn := uint64(1); lsn <= 4; lsn++ {
		multi = append(multi, appendFrame(nil, lsn, []byte(fmt.Sprintf("record-%d", lsn)))...)
	}
	f.Add(multi, uint64(2))

	sameRecord := func(a, b Record) bool { return a.LSN == b.LSN && bytes.Equal(a.Data, b.Data) }
	f.Fuzz(func(t *testing.T, data []byte, snapLSN uint64) {
		tail, last, good := scanWAL(data, snapLSN)
		if good < 0 || good > len(data) {
			t.Fatalf("good = %d, outside [0, %d]", good, len(data))
		}

		tail2, last2, good2 := scanWAL(data[:good], snapLSN)
		if good2 != good || last2 != last || !slices.EqualFunc(tail, tail2, sameRecord) {
			t.Fatalf("rescan of the kept %d bytes: good %d, last %d→%d, %d→%d records",
				good, good2, last, last2, len(tail), len(tail2))
		}

		base := max(last, snapLSN)
		if base == math.MaxUint64 {
			return // no LSN left to append at
		}
		next := base + 1
		payload := []byte("post-recovery")
		grown := append(data[:good:good], appendFrame(nil, next, payload)...)
		tail3, last3, good3 := scanWAL(grown, snapLSN)
		if good3 != len(grown) || last3 != next || len(tail3) != len(tail)+1 {
			t.Fatalf("after appending LSN %d: good %d of %d, last %d, %d records (want %d)",
				next, good3, len(grown), last3, len(tail3), len(tail)+1)
		}
		if !slices.EqualFunc(tail, tail3[:len(tail)], sameRecord) || !sameRecord(tail3[len(tail)], Record{LSN: next, Data: payload}) {
			t.Fatalf("after appending LSN %d: records differ", next)
		}
	})
}
