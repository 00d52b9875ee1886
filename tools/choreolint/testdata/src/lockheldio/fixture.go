// Package lockheldio is the seeded-violation fixture for the
// lockheldio analyzer: hot-lock-marked mutexes with the blocking
// operations the analyzer must catch under them — direct I/O, a sleep
// under a second lock, transitive I/O through a helper, an unbuffered
// send — next to the allowed shapes: buffered sends, selects with
// default, I/O after release, and the journal's own append path.
package lockheldio

import (
	"os"
	"sync"
	"time"

	"repro/internal/journal"
)

type store struct {
	//choreolint:hotlock
	persistMu sync.RWMutex
	dir       string
	jnl       *journal.Log
}

type shard struct {
	//choreolint:hotlock
	mu   sync.Mutex
	recs []string
}

// badDirectIO fsyncs through os.WriteFile while the persist lock is
// held.
func (s *store) badDirectIO() {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	os.WriteFile(s.dir, nil, 0o644) // want "os.WriteFile \(file I/O\) while persistMu is held"
}

// badSleepUnderShard sleeps under the shard lock.
func (sh *shard) badSleepUnderShard() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	time.Sleep(time.Millisecond) // want "time.Sleep while mu is held"
}

// readDir does file I/O; callers under a hot lock inherit the taint.
func (s *store) readDir() ([]os.DirEntry, error) {
	return os.ReadDir(s.dir)
}

// badViaHelper reaches the I/O through a call.
func (s *store) badViaHelper() {
	s.persistMu.RLock()
	defer s.persistMu.RUnlock()
	s.readDir() // want "call to readDir performs file I/O while persistMu is held"
}

// badUnbufferedSend can block every reader behind the shard lock.
func (sh *shard) badUnbufferedSend(ch chan string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ch <- "x" // want "potentially blocking channel send while mu is held"
}

// goodJournalAppend is the sanctioned exception: WAL appends must
// happen under the locks.
func (s *store) goodJournalAppend(rec []byte) error {
	s.persistMu.RLock()
	defer s.persistMu.RUnlock()
	_, err := s.jnl.Append(rec)
	return err
}

// goodBufferedSend cannot block: the channel has known capacity.
func (sh *shard) goodBufferedSend() {
	done := make(chan string, 1)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	done <- "x"
}

// goodSelectDefault cannot block: the default case bails out.
func (sh *shard) goodSelectDefault(ch chan string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	select {
	case ch <- "x":
	default:
	}
}

// goodAfterRelease does its I/O outside the critical section.
func (s *store) goodAfterRelease() {
	s.persistMu.Lock()
	s.persistMu.Unlock()
	os.WriteFile(s.dir, nil, 0o644)
}

// persistRLock leaks the lock to its caller — the store's documented
// idiom.
func (s *store) persistRLock() func() {
	s.persistMu.RLock()
	return s.persistMu.RUnlock
}

// badAfterLeak holds the lock through the leaky idiom.
func (s *store) badAfterLeak() {
	release := s.persistRLock()
	defer release()
	os.ReadDir(s.dir) // want "os.ReadDir \(file I/O\) while persistMu is held"
}

// goodLeakReleased calls the release handle before the I/O.
func (s *store) goodLeakReleased() {
	release := s.persistRLock()
	release()
	os.ReadDir(s.dir)
}
