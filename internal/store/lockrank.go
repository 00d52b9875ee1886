package store

import "sync"

// Lock ranks. The three locks that order journaled mutations carry a
// static rank, as the Go runtime ranks its own locks
// (runtime/lockrank.go): a goroutine may take a ranked lock only while
// every ranked lock it holds has a lower or equal rank. commitMu and
// instAppendMu order the WAL records of one key and are taken before
// persistMu, whose write side Checkpoint holds to quiesce every
// journaled mutation. A path that took either of them inside persistMu
// could deadlock a checkpoint against a mutator.
//
// Race builds check the order (lockrank_race.go): each ranked lock
// records its rank against the calling goroutine and panics, naming
// both locks, when the goroutine takes a lower rank while holding a
// higher one, or releases a lock it does not hold. So both CI race
// steps check every lock path the tests reach. Other builds call the
// embedded sync methods directly; the types define no method there.
//
// The other store locks are unranked: closeMu (the outermost gate),
// idemMu, consMu, viewMu, migMu, ingMu and the choreography and
// instance shard locks. Every cached check takes a shard read lock,
// and the tracker's stack walk costs about 9 µs per RLock/RUnlock pair
// (against 0.25 µs untracked under -race, 2 vCPUs), which would sink
// TestCacheSpeedup's 5× floor.
type lockRank int

const (
	rankCommit     lockRank = 1 // entry.commitMu
	rankInstAppend lockRank = 2 // entry.instAppendMu
	rankPersist    lockRank = 3 // Store.persistMu
)

// commitMutex is entry.commitMu, ranked rankCommit.
type commitMutex struct{ sync.Mutex }

// instAppendMutex is entry.instAppendMu, ranked rankInstAppend.
type instAppendMutex struct{ sync.Mutex }

// persistMutex is Store.persistMu, ranked rankPersist.
type persistMutex struct{ sync.RWMutex }
