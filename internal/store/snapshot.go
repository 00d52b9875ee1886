package store

import (
	"sync"

	"repro/internal/afsa"
	"repro/internal/bpel"
	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/label"
	"repro/internal/mapping"
	"repro/internal/wsdl"
)

// PartyState is the immutable state of one party at one version: its
// private process, the derived public process with mapping table and
// alphabet. A PartyState is shared by every snapshot taken while the
// party is unchanged, so the memoized bilateral views survive
// evolutions of *other* parties.
type PartyState struct {
	core.Party
	// Version counts the commits that touched this party (starting at
	// 1). It keys the consistency cache: results computed for an old
	// version can never be confused with the current behavior.
	Version uint64

	// views memoizes Public.View(forParty). Guarded by viewMu; the
	// automata themselves are immutable once published.
	viewMu sync.RWMutex
	views  map[string]*afsa.Automaton

	// chk memoizes the compliance checker over Public (determinized
	// automaton + viable-state set): migration sweeps classify every
	// instance of this party version through one shared checker.
	chkOnce sync.Once
	chk     *instance.Checker
	chkErr  error
}

func newPartyState(p *bpel.Process, res *mapping.Result, version uint64) *PartyState {
	return &PartyState{
		Party:   core.NewParty(p.Clone(), res),
		Version: version,
		views:   map[string]*afsa.Automaton{},
	}
}

// view returns the memoized bilateral view τ_forParty(Public),
// reporting whether it was a cache hit.
func (ps *PartyState) view(forParty string) (*afsa.Automaton, bool) {
	ps.viewMu.RLock()
	v, ok := ps.views[forParty]
	ps.viewMu.RUnlock()
	if ok {
		return v, true
	}
	v = ps.Public.View(forParty)
	ps.viewMu.Lock()
	if cached, ok := ps.views[forParty]; ok {
		v = cached // another goroutine won the race; keep one copy
	} else {
		ps.views[forParty] = v
	}
	ps.viewMu.Unlock()
	return v, false
}

// complianceChecker returns the memoized ADEPT-style compliance
// checker of this party version's public process; like the bilateral
// views it is computed at most once per PartyState and shared by
// every concurrent reader.
func (ps *PartyState) complianceChecker() (*instance.Checker, error) {
	ps.chkOnce.Do(func() {
		ps.chk, ps.chkErr = instance.NewChecker(ps.Public)
	})
	return ps.chk, ps.chkErr
}

// Snapshot is an immutable, copy-on-write view of one choreography.
// Readers obtain a snapshot and work on it without locks; writers
// build a new snapshot and publish it atomically. Party states that a
// commit does not touch are shared between the old and new snapshot.
//
// The immutability is load-bearing: once a snapshot is published via
// entry.snap, concurrent readers hold it lock-free, so any in-place
// write is a data race. Writes to a Snapshot are only legal on a
// not-yet-published copy (rebuildAll, CommitEvolutionIdem's build,
// restoreChoreo).
// Nothing checks this statically: a write to a published snapshot
// fails the store's tests, allocation pins or race steps (the plant
// matrix in docs/checks.md).
type Snapshot struct {
	// ID is the choreography identifier.
	ID string
	// Version counts the commits applied to the choreography.
	Version uint64
	// Registry resolves operations; rebuilt on every commit from the
	// current private processes plus the choreography's sync markers.
	Registry *wsdl.Registry

	// syms is the choreography's shared label interner: every party
	// public registered into any snapshot of this choreography is
	// reinterned into it at commit time, so bilateral views, pair
	// intersections and migration checkers across all parties agree on
	// label symbols and never re-hash label strings. The interner is
	// append-only and safe for concurrent use; snapshots of one
	// choreography share a single instance across versions.
	syms *label.Interner

	syncOps []string
	parties map[string]*PartyState
	order   []string
	// pairs caches InteractingPairs: the snapshot is immutable, so the
	// alphabet scans run once per commit instead of once per check.
	pairs [][2]string
}

// Parties returns the party names in registration order.
func (s *Snapshot) Parties() []string {
	return append([]string(nil), s.order...)
}

// Party returns one party's state.
func (s *Snapshot) Party(name string) (*PartyState, bool) {
	ps, ok := s.parties[name]
	return ps, ok
}

// NumParties returns the number of registered parties.
func (s *Snapshot) NumParties() int { return len(s.parties) }

// privatesWith collects the current private processes with every
// process of repl substituted for its owner (new owners are appended
// in repl order) — the combined process set a batch commit infers its
// registry from.
func (s *Snapshot) privatesWith(repl []*bpel.Process) []*bpel.Process {
	byOwner := make(map[string]*bpel.Process, len(repl))
	for _, p := range repl {
		byOwner[p.Owner] = p
	}
	out := make([]*bpel.Process, 0, len(s.parties)+len(repl))
	used := make(map[string]bool, len(repl))
	for _, name := range s.order {
		p := s.parties[name].Private
		if r, ok := byOwner[name]; ok {
			p = r
			used[name] = true
		}
		out = append(out, p)
	}
	for _, p := range repl {
		if !used[p.Owner] {
			out = append(out, p)
		}
	}
	return out
}

// InteractingPairs returns the party pairs that exchange at least one
// message, in registration order (precomputed per snapshot).
func (s *Snapshot) InteractingPairs() [][2]string {
	return append([][2]string(nil), s.pairs...)
}

// computePairs fills the pair cache; called once when the snapshot is
// built, before publication.
func (s *Snapshot) computePairs() {
	s.pairs = core.InteractingPairs(partySet{snap: s})
}

// PartnersOf returns the registered parties that exchange messages
// with party, sorted.
func (s *Snapshot) PartnersOf(party string) []string {
	ps, ok := s.parties[party]
	if !ok {
		return nil
	}
	return core.Partners(partySet{snap: s}, &ps.Party)
}

// partySet reads a snapshot as the core.Parties of the evolution
// analysis. Its bilateral views come from each party version's memo and
// count in st's view hits and misses; the pair and partner walks read
// no view and leave st nil.
type partySet struct {
	snap *Snapshot
	st   *Store
}

func (r partySet) Parties() []string { return r.snap.order }

func (r partySet) Party(name string) (*core.Party, bool) {
	ps, ok := r.snap.parties[name]
	if !ok {
		return nil, false
	}
	return &ps.Party, true
}

func (r partySet) BilateralView(p *core.Party, forParty string) *afsa.Automaton {
	return r.st.view(r.snap.parties[p.Name], forParty)
}

// clone returns a shallow copy of the snapshot sharing every party
// state; the caller replaces the touched parties and recomputes the
// pair cache (computePairs) before publishing.
func (s *Snapshot) clone() *Snapshot {
	parties := make(map[string]*PartyState, len(s.parties))
	for k, v := range s.parties {
		parties[k] = v
	}
	return &Snapshot{
		ID:       s.ID,
		Version:  s.Version,
		Registry: s.Registry,
		syms:     s.syms,
		syncOps:  append([]string(nil), s.syncOps...),
		parties:  parties,
		order:    append([]string(nil), s.order...),
	}
}
