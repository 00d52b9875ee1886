package label

import (
	"sort"
	"sync"
)

// Symbol is a dense interned handle for a Label. Symbols are small
// consecutive integers handed out by an Interner, so automaton
// operators can replace label hashing and string comparison with
// integer indexing into per-symbol slices. Symbol values are only
// meaningful relative to the Interner that produced them.
type Symbol int32

// SymEpsilon is the symbol of the silent label ε in every Interner:
// slot 0 is reserved for ε at construction, so ε-ness is a single
// integer comparison on the hot paths.
const SymEpsilon Symbol = 0

// Interner assigns dense Symbols to Labels. It is append-only — a
// label, once interned, keeps its symbol for the lifetime of the
// interner — and safe for concurrent use. One interner is typically
// shared by every automaton of a choreography snapshot, so symbols
// are comparable across party publics, bilateral views and their
// products without re-hashing any label string.
type Interner struct {
	mu      sync.RWMutex
	byLabel map[Label]Symbol
	labels  []Label
	// ranks caches Ranks(); valid while len(ranks) == len(labels).
	ranks []int32
}

// NewInterner returns an interner holding only ε (as SymEpsilon).
func NewInterner() *Interner {
	return &Interner{
		byLabel: map[Label]Symbol{Epsilon: SymEpsilon},
		labels:  []Label{Epsilon},
	}
}

// Intern returns the symbol of l, assigning the next free one on
// first sight. ε always interns to SymEpsilon.
func (in *Interner) Intern(l Label) Symbol {
	in.mu.RLock()
	s, ok := in.byLabel[l]
	in.mu.RUnlock()
	if ok {
		return s
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if s, ok := in.byLabel[l]; ok {
		return s
	}
	s = Symbol(len(in.labels))
	in.labels = append(in.labels, l)
	in.byLabel[l] = s
	return s
}

// Lookup returns the symbol of l without interning it; ok is false
// when l has never been interned.
func (in *Interner) Lookup(l Label) (Symbol, bool) {
	in.mu.RLock()
	s, ok := in.byLabel[l]
	in.mu.RUnlock()
	return s, ok
}

// LabelOf returns the label behind s. It panics on a symbol the
// interner never produced.
func (in *Interner) LabelOf(s Symbol) Label {
	in.mu.RLock()
	l := in.labels[s]
	in.mu.RUnlock()
	return l
}

// Len returns the number of interned labels, ε included. Symbols are
// always in [0, Len()).
func (in *Interner) Len() int {
	in.mu.RLock()
	n := len(in.labels)
	in.mu.RUnlock()
	return n
}

// Labels returns a stable read-only view of the interned labels,
// indexed by symbol. The returned slice is the interner's live backing
// array, shared by every caller and by the interner itself, so it must
// not be modified: a write through it corrupts the symbol table under
// every automaton sharing the interner. It stays valid while the
// interner grows (appends never move the prefix a caller already
// holds).
func (in *Interner) Labels() []Label {
	in.mu.RLock()
	l := in.labels
	in.mu.RUnlock()
	return l
}

// Ranks returns rank[sym] = position of sym's label in the
// lexicographic order of all currently interned labels. The slice is
// cached until the interner grows and shared by every caller, so it
// must be treated as read-only.
// Ranks are only meaningful relative to each other (rank[s1] <
// rank[s2] iff label(s1) < label(s2)); that relation is stable across
// interner growth even though the absolute values shift, so an
// operator may keep using the slice it fetched.
//
// Concurrency audit (the len(ranks) == len(labels) validity check):
//
//   - Both ranks and labels are only written under the write lock
//     (Intern appends to labels; Ranks installs a freshly built ranks
//     slice), so the two lengths read under either lock are a
//     consistent pair — the check can never observe a torn update.
//   - A recompute never mutates the previously published slice; it
//     builds a new one and swaps the field. A caller holding a stale
//     slice therefore sees stable values forever, and the documented
//     relative-order guarantee keeps those values meaningful.
//   - Equal lengths imply validity: labels is append-only, so
//     len(ranks) == len(labels) means no Intern has completed since
//     the cached ranks were computed over exactly those labels. An
//     Intern completing right after the check (racing reader) is
//     indistinguishable from the reader fetching Ranks first — the
//     caller got a slice that was valid at fetch time, which is all
//     the contract promises.
//
// Pinned by TestRanksConcurrentWithIntern under -race.
func (in *Interner) Ranks() []int32 {
	in.mu.RLock()
	if len(in.ranks) == len(in.labels) {
		r := in.ranks
		in.mu.RUnlock()
		return r
	}
	in.mu.RUnlock()
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.ranks) != len(in.labels) {
		order := make([]Symbol, len(in.labels))
		for i := range order {
			order[i] = Symbol(i)
		}
		sort.Slice(order, func(i, j int) bool { return in.labels[order[i]] < in.labels[order[j]] })
		ranks := make([]int32, len(order))
		for i, s := range order {
			ranks[s] = int32(i)
		}
		in.ranks = ranks
	}
	return in.ranks
}
