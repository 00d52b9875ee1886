package afsa

import (
	"slices"

	"repro/internal/label"
)

// EpsilonClosure returns the ε-closure of q (including q), sorted.
func (a *Automaton) EpsilonClosure(q StateID) []StateID {
	a.mustState(q)
	seen := make([]bool, a.NumStates())
	out := a.closureInto(q, seen, nil)
	sortIDs(out)
	return out
}

// closureInto appends the ε-closure of q (including q) to out, using
// seen as the visited set (callers reset or reallocate it between
// states). The result is in discovery order, not sorted.
func (a *Automaton) closureInto(q StateID, seen []bool, out []StateID) []StateID {
	seen[q] = true
	out = append(out, q)
	for i := len(out) - 1; i < len(out); i++ {
		for _, e := range a.trans[out[i]] {
			if e.sym == label.SymEpsilon && !seen[e.to] {
				seen[e.to] = true
				out = append(out, e.to)
			}
		}
	}
	return out
}

// epsFree returns a itself when it has no ε transitions (operators
// that only read their operands use this to skip the defensive copy
// RemoveEpsilon makes), else the ε-removed form.
func (a *Automaton) epsFree() *Automaton {
	if !a.HasEpsilon() {
		return a
	}
	return a.RemoveEpsilon()
}

// RemoveEpsilon returns an equivalent automaton without ε transitions.
// State IDs are preserved; unreachable states are then trimmed away.
//
// Annotation treatment: the new annotation of q is the conjunction of
// the explicit annotations of every state in the ε-closure of q. The
// closure states' visible transitions are copied to q as well, so a
// mandatory alternative recorded deeper inside the closure stays
// satisfiable exactly when it was before (see DESIGN.md §3). Callers
// performing view projection substitute hidden annotation variables
// *before* calling RemoveEpsilon.
func (a *Automaton) RemoveEpsilon() *Automaton {
	if !a.HasEpsilon() {
		return a.Clone()
	}
	out := NewShared(a.Name, a.syms)
	out.AddStates(a.NumStates())
	out.SetStart(a.start)
	seen := make([]bool, a.NumStates())
	var closure []StateID
	for q := 0; q < a.NumStates(); q++ {
		for i := range seen {
			seen[i] = false
		}
		closure = a.closureInto(StateID(q), seen, closure[:0])
		out.reserveEdges(StateID(q), len(a.trans[q]))
		for _, c := range closure {
			if a.final[c] {
				out.final[q] = true
			}
			for _, f := range a.anno[c] {
				out.Annotate(StateID(q), f)
			}
			for _, e := range a.trans[c] {
				if e.sym != label.SymEpsilon {
					out.addEdgeUnique(StateID(q), e.sym, e.to)
				}
			}
		}
	}
	trimmed, _ := out.Trim()
	return trimmed
}

// Determinize returns a deterministic automaton accepting the same
// language via the subset construction (ε transitions are removed
// first). The annotation of a subset state is the union (conjunction)
// of its members' explicit annotations; this conservative rule is
// exact for the near-deterministic automata produced by the BPEL
// mapping (DESIGN.md §3).
func (a *Automaton) Determinize() *Automaton {
	d, _ := a.determinize(false)
	return d
}

// DeterminizeWithMap is Determinize and additionally reports, for each
// new state, the set of original states it represents. The member sets
// refer to state IDs of the ε-free version of a, which preserves the
// IDs of a itself.
//
// Ownership: the returned member slices are freshly allocated and
// owned by the caller; mutating them does not affect the automaton,
// the receiver, or later calls.
func (a *Automaton) DeterminizeWithMap() (*Automaton, map[StateID][]StateID) {
	return a.determinize(true)
}

// determinize is the subset construction; the membership map is built
// only when wantMembers is set (Determinize callers never read it,
// and its per-state map inserts are measurable on the check path).
func (a *Automaton) determinize(wantMembers bool) (*Automaton, map[StateID][]StateID) {
	src := a.epsFree()
	out := NewShared(a.Name, src.syms)
	var members map[StateID][]StateID
	if wantMembers {
		members = make(map[StateID][]StateID)
	}
	if src.start == None {
		return out, members
	}
	out.reserveStates(src.NumStates())

	ranks := src.labelRanks()

	// subsets[id] holds the sorted, deduplicated member set of out
	// state id. Each is an owned copy — the subset-construction
	// scratch buffers below are never aliased into it (the historical
	// implementation sorted caller-owned bucket slices in place; the
	// ownership test in epsilon_test.go pins the copy semantics).
	var subsets [][]StateID
	index := make(map[uint64][]StateID) // FNV-1a hash → out ids with that hash
	var worklist []StateID

	// add returns the out state of the sorted, deduplicated set,
	// creating it (from a private copy of set) on first sight.
	add := func(set []StateID) StateID {
		h := hashIDs(set)
		for _, id := range index[h] {
			if equalIDs(subsets[id], set) {
				return id
			}
		}
		owned := append([]StateID(nil), set...)
		id := out.AddState()
		subsets = append(subsets, owned)
		index[h] = append(index[h], id)
		if members != nil {
			members[id] = owned
		}
		for _, s := range owned {
			if src.final[s] {
				out.final[id] = true
			}
			for _, f := range src.anno[s] {
				out.Annotate(id, f)
			}
		}
		worklist = append(worklist, id)
		return id
	}

	out.SetStart(add([]StateID{src.start}))

	// Per-symbol target buckets, reused across worklist items; touched
	// tracks which symbols have non-empty buckets this round.
	buckets := make([][]StateID, src.syms.Len())
	var touched []label.Symbol
	var scratch []StateID

	for head := 0; head < len(worklist); head++ {
		from := worklist[head]
		touched = touched[:0]
		for _, s := range subsets[from] {
			for _, e := range src.trans[s] {
				if len(buckets[e.sym]) == 0 {
					touched = append(touched, e.sym)
				}
				buckets[e.sym] = append(buckets[e.sym], e.to)
			}
		}
		// Label order keeps the output state numbering identical to
		// the historical string-keyed construction.
		for i := 1; i < len(touched); i++ {
			for j := i; j > 0 && ranks[touched[j]] < ranks[touched[j-1]]; j-- {
				touched[j], touched[j-1] = touched[j-1], touched[j]
			}
		}
		for _, sym := range touched {
			scratch = append(scratch[:0], buckets[sym]...)
			buckets[sym] = buckets[sym][:0]
			sortIDs(scratch)
			scratch = dedupSortedIDs(scratch)
			out.addEdge(from, sym, add(scratch))
		}
	}
	return out, members
}

// hashIDs is FNV-1a over the little-endian bytes of the IDs. It runs
// once per candidate state set in determinization's inner loop;
// TestHashIDsAllocs pins it at zero allocations.
func hashIDs(ids []StateID) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range ids {
		v := uint32(s)
		for i := 0; i < 4; i++ {
			h ^= uint64(v & 0xff)
			h *= 1099511628211
			v >>= 8
		}
	}
	return h
}

func equalIDs(a, b []StateID) bool { return slices.Equal(a, b) }

// sortIDs sorts in place; slices.Sort is a non-allocating pdqsort.
func sortIDs(x []StateID) { slices.Sort(x) }

// dedupSortedIDs removes adjacent duplicates in place.
func dedupSortedIDs(x []StateID) []StateID { return slices.Compact(x) }
