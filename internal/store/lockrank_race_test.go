//go:build race

package store

import (
	"fmt"
	"strings"
	"testing"
)

// panicOf runs f and returns what it panicked with ("" if nothing).
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestLockRanks drives the real ranked locks through the race-build
// checker: the documented order passes, an inversion and a release by
// a goroutine that does not hold the lock panic, naming the locks.
func TestLockRanks(t *testing.T) {
	s := New()
	e := newEntry("c", nil)

	e.commitMu.Lock()
	e.instAppendMu.Lock()
	s.persistMu.RLock()
	s.persistMu.RUnlock()
	e.instAppendMu.Unlock()
	e.commitMu.Unlock()

	s.persistMu.Lock()
	msg := panicOf(e.commitMu.Lock)
	s.persistMu.Unlock()
	if !strings.Contains(msg, "commitMu") || !strings.Contains(msg, "persistMu") {
		t.Fatalf("commitMu inside persistMu: panic %q, want one naming both locks", msg)
	}

	s.persistMu.RLock()
	msg = panicOf(e.instAppendMu.Lock)
	s.persistMu.RUnlock()
	if !strings.Contains(msg, "instAppendMu") || !strings.Contains(msg, "persistMu") {
		t.Fatalf("instAppendMu inside persistMu: panic %q, want one naming both locks", msg)
	}

	e.commitMu.Lock()
	done := make(chan string)
	go func() { done <- panicOf(e.commitMu.Unlock) }()
	msg = <-done
	e.commitMu.Unlock()
	if !strings.Contains(msg, "commitMu") || !strings.Contains(msg, "does not hold") {
		t.Fatalf("commitMu released by another goroutine: panic %q, want one naming the lock", msg)
	}
}
