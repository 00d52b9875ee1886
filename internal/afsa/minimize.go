package afsa

import (
	"fmt"

	"repro/internal/formula"
)

// Minimize returns the annotation-preserving minimal deterministic
// automaton for a: ε transitions are removed, the automaton is
// determinized, dead states (unable to reach a final state) are
// trimmed, and language-equivalent states are merged by Moore
// partition refinement. Two states are only ever merged when they
// carry semantically equal annotations, so the minimized automaton is
// both language- and viability-equivalent to the input (the paper
// presents its view automata "minimized", Figs. 8, 13, 17).
func (a *Automaton) Minimize() *Automaton {
	m, _ := a.minimize(false)
	return m
}

// MinimizeWithMap is Minimize and additionally reports, for each input
// state of the determinized form, the subset of a's original states it
// represents, merged across equivalence classes. The map sends each
// minimized state to the original state IDs it stands for; it is what
// lets the mapping table of Sec. 3.3 survive minimization.
func (a *Automaton) MinimizeWithMap() (*Automaton, map[StateID][]StateID) {
	return a.minimize(true)
}

// minimize is the shared implementation; membership tracking is built
// only when wantMembers is set.
func (a *Automaton) minimize(wantMembers bool) (*Automaton, map[StateID][]StateID) {
	det, detMembers := a.determinize(wantMembers)
	trimmed, trimMap := det.TrimCoReachable()

	// Translate determinization membership through the trim.
	var members map[StateID][]StateID
	if wantMembers {
		members = make(map[StateID][]StateID)
		for oldID, newID := range trimMap {
			if newID != None {
				members[newID] = append([]StateID(nil), detMembers[oldID]...)
			}
		}
	}

	n := trimmed.NumStates()
	if n == 0 {
		return trimmed, members
	}

	// Initial partition: finality + canonical annotation string. The
	// annotation string is the one piece of the partition that has to
	// stay textual (annotations are compared semantically, via their
	// canonical rendering); it is computed once per state, outside the
	// refinement loop.
	class := make([]int, n)
	classKey := map[string]int{}
	for q := 0; q < n; q++ {
		key := trimmed.Annotation(StateID(q)).String()
		if trimmed.final[q] {
			key = "T|" + key
		} else {
			key = "F|" + key
		}
		id, ok := classKey[key]
		if !ok {
			id = len(classKey)
			classKey[key] = id
		}
		class[q] = id
	}

	// Sort each state's edge list by symbol once: trimmed is
	// deterministic (at most one edge per symbol), so the sorted lists
	// are this automaton's canonical signatures modulo the class IDs.
	// trimmed is private to this call; reordering its edges is safe.
	for q := range trimmed.trans {
		sortEdgesBySym(trimmed.trans[q])
	}

	// Moore refinement on integer signatures: class of the state
	// followed by (symbol, class of target) pairs in symbol order.
	// Signatures are packed into a reused byte buffer; the map lookup
	// with a string(sig) key does not allocate, and the key string is
	// materialized only for newly discovered classes (at most n).
	var sig []byte
	next := make([]int, n)
	for {
		sigKey := map[string]int{}
		for q := 0; q < n; q++ {
			sig = appendUint32(sig[:0], uint32(class[q]))
			for _, e := range trimmed.trans[q] {
				sig = appendUint32(sig, uint32(e.sym)+1)
				sig = appendUint32(sig, uint32(class[e.to]))
			}
			id, ok := sigKey[string(sig)]
			if !ok {
				id = len(sigKey)
				sigKey[string(sig)] = id
			}
			next[q] = id
		}
		same := true
		for q := 0; q < n; q++ {
			if next[q] != class[q] {
				same = false
				break
			}
		}
		class, next = next, class
		if same || len(sigKey) == n {
			break
		}
	}

	// Quotient automaton.
	out := NewShared(a.Name, trimmed.syms)
	rep := map[int]StateID{} // class -> new state
	classOf := func(q StateID) StateID {
		id, ok := rep[class[q]]
		if !ok {
			id = out.AddState()
			rep[class[q]] = id
		}
		return id
	}
	// Allocate states in a stable order: BFS from the start state.
	order := bfsOrder(trimmed)
	for _, q := range order {
		classOf(q)
	}
	var outMembers map[StateID][]StateID
	if wantMembers {
		outMembers = make(map[StateID][]StateID)
	}
	for _, q := range order {
		nq := classOf(q)
		out.final[nq] = trimmed.final[q]
		if len(out.anno[nq]) == 0 {
			for _, f := range trimmed.anno[q] {
				out.Annotate(nq, f)
			}
		}
		if wantMembers {
			outMembers[nq] = append(outMembers[nq], members[q]...)
		}
		// Every class representative already has its state (the
		// classOf pass above), so edge insertion order is not
		// observable; iterate the raw edge lists.
		for _, e := range trimmed.trans[q] {
			out.addEdgeUnique(nq, e.sym, classOf(e.to))
		}
	}
	out.SetStart(classOf(trimmed.start))
	for nq := range outMembers {
		outMembers[nq] = dedupStates(outMembers[nq])
	}
	return out, outMembers
}

func appendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func bfsOrder(a *Automaton) []StateID {
	if a.start == None {
		return nil
	}
	ranks := a.labelRanks()
	seen := make([]bool, a.NumStates())
	order := make([]StateID, 1, a.NumStates())
	order[0] = a.start
	seen[a.start] = true
	var scratch []edge
	for i := 0; i < len(order); i++ {
		// Explore in label order (via symbol ranks) for the stable
		// numbering Canonical depends on.
		scratch = append(scratch[:0], a.trans[order[i]]...)
		sortEdges(scratch, ranks)
		for _, e := range scratch {
			if !seen[e.to] {
				seen[e.to] = true
				order = append(order, e.to)
			}
		}
	}
	// Append unreachable states in numeric order so every state gets a
	// class representative.
	for q := 0; q < a.NumStates(); q++ {
		if !seen[q] {
			order = append(order, StateID(q))
		}
	}
	return order
}

func dedupStates(in []StateID) []StateID {
	sortIDs(in)
	return dedupSortedIDs(in)
}

// Canonical returns a structurally canonical automaton: minimized,
// states renumbered in BFS order (transitions explored in label
// order), transition lists sorted. Two automata with the same language
// and annotations canonicalize to identical structures, which is how
// the figure-reproduction tests compare computed against expected
// artifacts.
func (a *Automaton) Canonical() *Automaton {
	m := a.Minimize()
	order := bfsOrder(m)
	remap := make([]StateID, m.NumStates())
	for i, q := range order {
		remap[q] = StateID(i)
	}
	out := NewShared(a.Name, m.syms)
	out.AddStates(m.NumStates())
	if m.NumStates() == 0 {
		return out
	}
	out.SetStart(remap[m.start])
	for q := 0; q < m.NumStates(); q++ {
		nq := remap[q]
		out.final[nq] = m.final[q]
		for _, f := range m.anno[q] {
			out.Annotate(nq, f)
		}
		for _, e := range m.trans[q] {
			out.addEdgeUnique(nq, e.sym, remap[e.to])
		}
	}
	return out
}

// Equivalent reports whether a and b have the same language and the
// same (semantically compared) annotations on corresponding states of
// their canonical forms.
func Equivalent(a, b *Automaton) bool {
	return equivalentExplain(a, b) == ""
}

// ExplainDifference returns "" when Equivalent(a, b), otherwise a
// human-readable description of the first structural difference
// between the canonical forms — used in test failure messages.
func ExplainDifference(a, b *Automaton) string { return equivalentExplain(a, b) }

func equivalentExplain(a, b *Automaton) string {
	ca, cb := a.Canonical(), b.Canonical()
	if ca.NumStates() != cb.NumStates() {
		return fmt.Sprintf("state count %d vs %d\nA:\n%s\nB:\n%s", ca.NumStates(), cb.NumStates(), ca.DebugString(), cb.DebugString())
	}
	if ca.NumStates() == 0 {
		return ""
	}
	if ca.start != cb.start {
		return fmt.Sprintf("start state %d vs %d", ca.start, cb.start)
	}
	for q := 0; q < ca.NumStates(); q++ {
		if ca.final[q] != cb.final[q] {
			return fmt.Sprintf("state %d finality %t vs %t\nA:\n%s\nB:\n%s", q, ca.final[q], cb.final[q], ca.DebugString(), cb.DebugString())
		}
		ta, tb := ca.Transitions(StateID(q)), cb.Transitions(StateID(q))
		if len(ta) != len(tb) {
			return fmt.Sprintf("state %d transition count %d vs %d\nA:\n%s\nB:\n%s", q, len(ta), len(tb), ca.DebugString(), cb.DebugString())
		}
		for i := range ta {
			if ta[i] != tb[i] {
				return fmt.Sprintf("state %d transition %d: %v vs %v\nA:\n%s\nB:\n%s", q, i, ta[i], tb[i], ca.DebugString(), cb.DebugString())
			}
		}
		if !annotationsEqual(ca, cb, StateID(q)) {
			return fmt.Sprintf("state %d annotation %q vs %q", q, ca.Annotation(StateID(q)), cb.Annotation(StateID(q)))
		}
	}
	return ""
}

func annotationsEqual(a, b *Automaton, q StateID) bool {
	fa, fb := a.Annotation(q), b.Annotation(q)
	if fa.String() == fb.String() {
		return true
	}
	return formula.Equal(fa, fb)
}

// SameLanguage reports language equality ignoring annotations.
func SameLanguage(a, b *Automaton) bool {
	return !hasAcceptingPath(a.Difference(b)) && !hasAcceptingPath(b.Difference(a))
}

// hasAcceptingPath reports plain FSA non-emptiness (annotations
// ignored): some final state is reachable.
func hasAcceptingPath(a *Automaton) bool {
	if a.start == None {
		return false
	}
	reach := a.Reachable()
	for q, f := range a.final {
		if f && reach[q] {
			return true
		}
	}
	return false
}

// sortEdgesBySym insertion-sorts one state's edge list by symbol in
// place. The lists are short and nearly sorted, and the loop runs once
// per state of every minimized automaton; TestSortEdgesBySymAllocs
// pins it at zero allocations.
func sortEdgesBySym(es []edge) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].sym < es[j-1].sym; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}
