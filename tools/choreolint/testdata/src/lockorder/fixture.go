// Package lockorder is the seeded-violation fixture for the lockorder
// analyzer: a miniature of the store's lock hierarchy, with the
// persistMu inversions the analyzer must catch — direct, through the
// call graph, and through the leaky persistRLock idiom — next to the
// correct orders it must leave alone.
package lockorder

import "sync"

type store struct {
	persistMu    sync.RWMutex
	commitMu     sync.Mutex
	instAppendMu sync.Mutex
	mu           sync.Mutex
}

// goodOrder takes the outer lock first — the documented hierarchy.
func (s *store) goodOrder() {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	s.persistMu.RLock()
	defer s.persistMu.RUnlock()
}

// badDirect inverts the hierarchy in one body.
func (s *store) badDirect() {
	s.persistMu.RLock()
	defer s.persistMu.RUnlock()
	s.commitMu.Lock() // want "commitMu acquired while persistMu is held"
	s.commitMu.Unlock()
}

func (s *store) takesCommit() {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
}

func (s *store) takesCommitDeep() { s.takesCommit() }

// badViaCall inverts the hierarchy two calls deep.
func (s *store) badViaCall() {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	s.takesCommitDeep() // want "acquires commitMu/instAppendMu while persistMu is held"
}

// persistRLock returns while still holding persistMu — callers hold it.
func (s *store) persistRLock() func() {
	s.persistMu.RLock()
	return s.persistMu.RUnlock
}

// badAfterLeak holds persistMu via the leaky idiom.
func (s *store) badAfterLeak() {
	unlock := s.persistRLock()
	defer unlock()
	s.instAppendMu.Lock() // want "instAppendMu acquired while persistMu is held"
	s.instAppendMu.Unlock()
}

// goodAfterRelease releases persistMu before taking the outer lock.
func (s *store) goodAfterRelease() {
	s.persistMu.RLock()
	s.persistMu.RUnlock()
	s.commitMu.Lock()
	s.commitMu.Unlock()
}

// goodOther may take unrelated locks under persistMu.
func (s *store) goodOther() {
	s.persistMu.RLock()
	defer s.persistMu.RUnlock()
	s.mu.Lock()
	s.mu.Unlock()
}
