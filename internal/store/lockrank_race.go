//go:build race

package store

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
)

// The race-build lock-rank checker (see lockrank.go).

var rankNames = [...]string{rankCommit: "commitMu", rankInstAppend: "instAppendMu", rankPersist: "persistMu"}

func (r lockRank) String() string { return fmt.Sprintf("%s (rank %d)", rankNames[r], int(r)) }

// held maps a goroutine ID to the ranks it holds, in acquisition order.
var held = struct {
	sync.Mutex
	by map[uint64][]lockRank
}{by: map[uint64][]lockRank{}}

// acquire records r against the calling goroutine before it blocks on
// the lock, panicking if the goroutine holds a higher rank.
func acquire(r lockRank) {
	g := goroutineID()
	held.Lock()
	defer held.Unlock()
	for _, h := range held.by[g] {
		if h > r {
			panic(fmt.Sprintf("store: lock order: acquiring %v while holding %v", r, h))
		}
	}
	held.by[g] = append(held.by[g], r)
}

// release drops the calling goroutine's latest hold of r, panicking if
// it holds none.
func release(r lockRank) {
	g := goroutineID()
	held.Lock()
	defer held.Unlock()
	hs := held.by[g]
	for i := len(hs) - 1; i >= 0; i-- {
		if hs[i] == r {
			if hs = append(hs[:i], hs[i+1:]...); len(hs) == 0 {
				delete(held.by, g)
			} else {
				held.by[g] = hs
			}
			return
		}
	}
	panic(fmt.Sprintf("store: lock order: releasing %v, which goroutine %d does not hold", r, g))
}

// goroutineID parses the calling goroutine's ID from the
// "goroutine N [" header of its stack trace, as net/http's
// http2curGoroutineID does.
func goroutineID() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	b, _, _ = bytes.Cut(b, []byte(" "))
	id, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		panic(fmt.Sprintf("store: parsing goroutine ID: %v", err))
	}
	return id
}

func (m *commitMutex) Lock()   { acquire(rankCommit); m.Mutex.Lock() }
func (m *commitMutex) Unlock() { release(rankCommit); m.Mutex.Unlock() }

func (m *instAppendMutex) Lock()   { acquire(rankInstAppend); m.Mutex.Lock() }
func (m *instAppendMutex) Unlock() { release(rankInstAppend); m.Mutex.Unlock() }

func (m *persistMutex) Lock()    { acquire(rankPersist); m.RWMutex.Lock() }
func (m *persistMutex) Unlock()  { release(rankPersist); m.RWMutex.Unlock() }
func (m *persistMutex) RLock()   { acquire(rankPersist); m.RWMutex.RLock() }
func (m *persistMutex) RUnlock() { release(rankPersist); m.RWMutex.RUnlock() }
