// Package afsa implements the annotated Finite State Automata (aFSA)
// of "On the Controlled Evolution of Process Choreographies" (ICDE
// 2006), Definition 2, together with every operator the paper's change
// framework needs:
//
//   - intersection (Def. 3) and annotated emptiness / bilateral
//     consistency (Sec. 3.2),
//   - difference (Def. 4), union (Sec. 5.2 step 2), complement,
//   - ε-removal, determinization, completion, minimization,
//   - bilateral views τ_P (Sec. 3.4) including annotation projection,
//   - canonicalization and equivalence checking used by the
//     figure-reproduction tests,
//   - language inspection helpers and DOT export.
//
// An aFSA is a tuple (Q, Σ, Δ, q0, F, QA): states, message alphabet,
// labeled transitions, start state, final states and a relation
// attaching propositional formulas (package formula) to states. The
// formulas mark message alternatives as mandatory for a trading
// partner; a state may carry several formulas, which are conjoined.
//
// States are dense integers handed out by AddState, so the
// implementation stores transitions, finality and annotations in
// slices indexed by state. Labels are likewise interned into dense
// label.Symbol values (package label's Interner), so the operator
// kernels — subset construction, partition refinement, products —
// work on integers and never hash or compare label strings on their
// hot paths. label.Label appears only at the construction and
// serialization boundary (AddTransition, Transitions, DOT, ...).
// Automata produced by an operator share the interner of their
// primary operand; NewShared builds automata on a caller-provided
// (for example per-choreography) interner, and Reintern moves an
// existing automaton onto one.
package afsa

import (
	"fmt"
	"strings"

	"repro/internal/formula"
	"repro/internal/label"
)

// StateID identifies a state of an Automaton. Valid IDs are
// 0..NumStates()-1; None marks the absence of a state.
type StateID int

// None is the invalid state ID.
const None StateID = -1

// Transition is one labeled edge of Δ. An ε transition carries
// label.Epsilon; ε edges appear only transiently during view
// generation and are removed before any product construction.
type Transition struct {
	Label label.Label
	To    StateID
}

// edge is the internal, interned form of a transition.
type edge struct {
	sym label.Symbol
	to  StateID
}

// Automaton is a mutable annotated finite state automaton. The zero
// value is unusable; use New or NewShared.
//
// Mutability ends at publication: every automaton reachable from a
// published store snapshot (party publics, bilateral views, checker
// DFAs) is read concurrently without locks, so mutations are only
// legal while an automaton is still being constructed. Nothing checks
// this statically: a write to a published automaton fails the store's
// allocation pins or its race tests (see docs/checks.md).
type Automaton struct {
	// Name is a human-readable identifier carried through operators
	// for diagnostics ("Buyer public", "τ_Buyer(Accounting)", ...).
	Name string

	syms  *label.Interner
	start StateID
	final []bool
	trans [][]edge
	anno  [][]*formula.Formula
}

// New returns an empty automaton with the given diagnostic name, no
// states and a private interner. Callers must add at least one state
// and set the start state.
func New(name string) *Automaton {
	return NewShared(name, label.NewInterner())
}

// NewShared returns an empty automaton whose labels are interned into
// in. Automata sharing one interner agree on their label.Symbol
// values, so products and comparisons between them skip all label
// re-hashing; a serving layer typically shares one interner per
// choreography snapshot.
func NewShared(name string, in *label.Interner) *Automaton {
	return &Automaton{Name: name, syms: in, start: None}
}

// Interner returns the interner holding this automaton's labels.
func (a *Automaton) Interner() *label.Interner { return a.syms }

// Reintern rewrites the automaton's symbols into in (a no-op when the
// automaton already uses it) and makes in its interner. The registry
// of a choreography calls this once per party registration so that
// every derived automaton of the snapshot shares one symbol space.
func (a *Automaton) Reintern(in *label.Interner) {
	if a.syms == in {
		return
	}
	old := a.syms.Labels()
	tr := make([]label.Symbol, len(old))
	for s := range tr {
		tr[s] = in.Intern(old[s])
	}
	for q := range a.trans {
		for i := range a.trans[q] {
			a.trans[q][i].sym = tr[a.trans[q][i].sym]
		}
	}
	a.syms = in
}

// NumStates returns |Q|.
func (a *Automaton) NumStates() int { return len(a.trans) }

// AddState creates a fresh non-final state and returns its ID. The
// first state added becomes the start state unless SetStart is called.
func (a *Automaton) AddState() StateID {
	id := StateID(len(a.trans))
	a.trans = append(a.trans, nil)
	a.final = append(a.final, false)
	a.anno = append(a.anno, nil)
	if a.start == None {
		a.start = id
	}
	return id
}

// AddStates creates n fresh states in one allocation step and returns
// the first ID.
func (a *Automaton) AddStates(n int) StateID {
	first := StateID(len(a.trans))
	if n <= 0 {
		return first
	}
	a.trans = append(a.trans, make([][]edge, n)...)
	a.final = append(a.final, make([]bool, n)...)
	a.anno = append(a.anno, make([][]*formula.Formula, n)...)
	if a.start == None {
		a.start = first
	}
	return first
}

// Start returns q0 (None if no state exists yet).
func (a *Automaton) Start() StateID { return a.start }

// SetStart makes q the start state.
func (a *Automaton) SetStart(q StateID) {
	a.mustState(q)
	a.start = q
}

// IsFinal reports whether q ∈ F.
func (a *Automaton) IsFinal(q StateID) bool {
	a.mustState(q)
	return a.final[q]
}

// SetFinal adds or removes q from F.
func (a *Automaton) SetFinal(q StateID, final bool) {
	a.mustState(q)
	a.final[q] = final
}

// FinalStates returns F in ascending order.
func (a *Automaton) FinalStates() []StateID {
	var out []StateID
	for q := range a.final {
		if a.final[q] {
			out = append(out, StateID(q))
		}
	}
	return out
}

// AddTransition inserts (from, l, to) into Δ, ignoring exact
// duplicates.
func (a *Automaton) AddTransition(from StateID, l label.Label, to StateID) {
	a.addEdgeUnique(from, a.syms.Intern(l), to)
}

// addEdgeUnique inserts the interned edge (from, sym, to), ignoring
// exact duplicates.
func (a *Automaton) addEdgeUnique(from StateID, sym label.Symbol, to StateID) {
	a.mustState(from)
	a.mustState(to)
	for _, e := range a.trans[from] {
		if e.sym == sym && e.to == to {
			return
		}
	}
	a.trans[from] = append(a.trans[from], edge{sym: sym, to: to})
}

// addEdge inserts the interned edge without the duplicate scan —
// for operator kernels that construct each (from, sym, to) at most
// once by design.
func (a *Automaton) addEdge(from StateID, sym label.Symbol, to StateID) {
	a.trans[from] = append(a.trans[from], edge{sym: sym, to: to})
}

// reserveEdges pre-sizes state q's edge list for n insertions, so the
// per-state relabeling loops of the view and trim operators allocate
// once instead of growing append by append.
func (a *Automaton) reserveEdges(q StateID, n int) {
	if n > 0 && a.trans[q] == nil {
		a.trans[q] = make([]edge, 0, n)
	}
}

// reserveStates grows the state-table capacity to n, a hint for
// operators that discover their output states one by one.
func (a *Automaton) reserveStates(n int) {
	if cap(a.trans) >= n {
		return
	}
	trans := make([][]edge, len(a.trans), n)
	copy(trans, a.trans)
	a.trans = trans
	final := make([]bool, len(a.final), n)
	copy(final, a.final)
	a.final = final
	anno := make([][]*formula.Formula, len(a.anno), n)
	copy(anno, a.anno)
	a.anno = anno
}

// Transitions returns the outgoing transitions of q sorted by
// (label, target). The returned slice is a copy.
func (a *Automaton) Transitions(q StateID) []Transition {
	a.mustState(q)
	labels := a.syms.Labels()
	out := make([]Transition, len(a.trans[q]))
	for i, e := range a.trans[q] {
		out[i] = Transition{Label: labels[e.sym], To: e.to}
	}
	// Insertion sort: transition lists are short (bounded by the
	// alphabet for DFAs) and sort.Slice's closure allocations show up
	// in the operator profiles.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && (out[j].Label < out[j-1].Label ||
			(out[j].Label == out[j-1].Label && out[j].To < out[j-1].To)); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// NumTransitions returns |Δ|.
func (a *Automaton) NumTransitions() int {
	n := 0
	for _, ts := range a.trans {
		n += len(ts)
	}
	return n
}

// Annotate attaches formula f to state q (QA in Def. 2). Attaching
// true is a no-op. Multiple annotations on one state are conjoined by
// Annotation.
func (a *Automaton) Annotate(q StateID, f *formula.Formula) {
	a.mustState(q)
	if f.IsTrue() {
		return
	}
	a.anno[q] = append(a.anno[q], f)
}

// Annotations returns the raw annotation formulas of q (a copy).
func (a *Automaton) Annotations(q StateID) []*formula.Formula {
	a.mustState(q)
	if len(a.anno[q]) == 0 {
		return nil
	}
	out := make([]*formula.Formula, len(a.anno[q]))
	copy(out, a.anno[q])
	return out
}

// Annotation returns the conjunction of q's explicit annotations
// (true when unannotated).
func (a *Automaton) Annotation(q StateID) *formula.Formula {
	a.mustState(q)
	return formula.And(a.anno[q]...)
}

// ClearAnnotations removes every annotation of q.
func (a *Automaton) ClearAnnotations(q StateID) {
	a.mustState(q)
	a.anno[q] = nil
}

// StripAnnotations returns a copy with every annotation removed — the
// plain FSA underlying the aFSA. Used by the annotation-ablation
// experiment: without mandatory annotations, bilateral consistency
// degenerates to language-intersection non-emptiness and misses the
// deadlocks the paper's Figs. 12/16 scenarios exhibit.
func (a *Automaton) StripAnnotations() *Automaton {
	c := a.Clone()
	c.Name = a.Name + " (stripped)"
	for q := range c.anno {
		c.anno[q] = nil
	}
	return c
}

// Alphabet returns Σ: every non-ε label occurring on a transition.
func (a *Automaton) Alphabet() label.Set {
	labels := a.syms.Labels()
	s := label.NewSet()
	for _, ts := range a.trans {
		for _, e := range ts {
			s.Add(labels[e.sym])
		}
	}
	return s
}

// HasEpsilon reports whether any transition is silent.
func (a *Automaton) HasEpsilon() bool {
	for _, ts := range a.trans {
		for _, e := range ts {
			if e.sym == label.SymEpsilon {
				return true
			}
		}
	}
	return false
}

// Deterministic reports whether the automaton is ε-free and no state
// has two outgoing transitions with the same label.
func (a *Automaton) Deterministic() bool {
	seen := make([]int32, a.syms.Len())
	for q, ts := range a.trans {
		mark := int32(q) + 1
		for _, e := range ts {
			if e.sym == label.SymEpsilon {
				return false
			}
			if seen[e.sym] == mark {
				return false
			}
			seen[e.sym] = mark
		}
	}
	return true
}

// Step returns the targets reachable from q by exactly label l.
func (a *Automaton) Step(q StateID, l label.Label) []StateID {
	a.mustState(q)
	sym, ok := a.syms.Lookup(l)
	if !ok {
		return nil
	}
	var out []StateID
	for _, e := range a.trans[q] {
		if e.sym == sym {
			out = append(out, e.to)
		}
	}
	sortIDs(out)
	return out
}

// Clone returns a deep copy (annotation formulas are immutable and
// shared, as is the append-only interner).
func (a *Automaton) Clone() *Automaton {
	c := &Automaton{Name: a.Name, syms: a.syms, start: a.start}
	c.final = append([]bool(nil), a.final...)
	c.trans = make([][]edge, len(a.trans))
	for q, ts := range a.trans {
		c.trans[q] = append([]edge(nil), ts...)
	}
	c.anno = make([][]*formula.Formula, len(a.anno))
	for q, fs := range a.anno {
		c.anno[q] = append([]*formula.Formula(nil), fs...)
	}
	return c
}

// Validate checks structural invariants: a start state exists, every
// transition target is a valid state, labels are well-formed, and
// annotation variables are well-formed labels.
func (a *Automaton) Validate() error {
	if a.start == None {
		return fmt.Errorf("afsa %q: no start state", a.Name)
	}
	if int(a.start) >= a.NumStates() {
		return fmt.Errorf("afsa %q: start state %d out of range", a.Name, a.start)
	}
	labels := a.syms.Labels()
	for q, ts := range a.trans {
		for _, e := range ts {
			if e.to < 0 || int(e.to) >= a.NumStates() {
				return fmt.Errorf("afsa %q: transition from %d to invalid state %d", a.Name, q, e.to)
			}
			if !labels[e.sym].Valid() {
				return fmt.Errorf("afsa %q: invalid label %q at state %d", a.Name, string(labels[e.sym]), q)
			}
		}
	}
	for q, fs := range a.anno {
		for _, f := range fs {
			for v := range f.Vars() {
				if !label.Label(v).Valid() || v == "" {
					return fmt.Errorf("afsa %q: state %d annotation references invalid label %q", a.Name, q, v)
				}
			}
		}
	}
	return nil
}

// CheckPositive reports an error when any annotation contains
// negation; the annotated-emptiness fixpoint requires positive
// formulas (see DESIGN.md).
func (a *Automaton) CheckPositive() error {
	for q, fs := range a.anno {
		for _, f := range fs {
			if !f.Positive() {
				return fmt.Errorf("afsa %q: state %d has non-positive annotation %v", a.Name, q, f)
			}
		}
	}
	return nil
}

// Reachable returns the set of states reachable from the start state
// (following ε like any other edge).
func (a *Automaton) Reachable() []bool {
	seen := make([]bool, a.NumStates())
	if a.start == None {
		return seen
	}
	stack := []StateID{a.start}
	seen[a.start] = true
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range a.trans[q] {
			if !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	return seen
}

// CoReachable returns the set of states from which some final state is
// reachable (pure graph reachability; annotations are ignored). The
// reverse adjacency is built in compressed sparse form: two
// allocations instead of one bucket per state.
func (a *Automaton) CoReachable() []bool {
	n := a.NumStates()
	m := 0
	for q := 0; q < n; q++ {
		m += len(a.trans[q])
	}
	off := make([]int32, n+1)
	for q := 0; q < n; q++ {
		for _, e := range a.trans[q] {
			off[e.to+1]++
		}
	}
	for q := 0; q < n; q++ {
		off[q+1] += off[q]
	}
	flat := make([]StateID, m)
	fill := make([]int32, n)
	copy(fill, off[:n])
	for q := 0; q < n; q++ {
		for _, e := range a.trans[q] {
			flat[fill[e.to]] = StateID(q)
			fill[e.to]++
		}
	}
	seen := make([]bool, n)
	var stack []StateID
	for q, f := range a.final {
		if f {
			seen[q] = true
			stack = append(stack, StateID(q))
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range flat[off[q]:off[q+1]] {
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return seen
}

// Trim returns a copy containing only the states reachable from the
// start state (renumbered). The returned map sends old state IDs to
// new ones (None for dropped states).
func (a *Automaton) Trim() (*Automaton, map[StateID]StateID) {
	return a.restrict(a.Reachable())
}

// TrimCoReachable returns a copy containing only states that are both
// reachable and co-reachable. The start state is always kept (an
// automaton whose start state is dead keeps exactly that one state so
// that it remains a valid, empty automaton).
func (a *Automaton) TrimCoReachable() (*Automaton, map[StateID]StateID) {
	reach, coreach := a.Reachable(), a.CoReachable()
	keep := make([]bool, a.NumStates())
	for q := range keep {
		keep[q] = reach[q] && coreach[q]
	}
	if a.start != None {
		keep[a.start] = true
	}
	return a.restrict(keep)
}

func (a *Automaton) restrict(keep []bool) (*Automaton, map[StateID]StateID) {
	out := NewShared(a.Name, a.syms)
	remap := make(map[StateID]StateID, a.NumStates())
	kept := 0
	for q := 0; q < a.NumStates(); q++ {
		if keep[q] {
			remap[StateID(q)] = StateID(kept)
			kept++
		} else {
			remap[StateID(q)] = None
		}
	}
	out.AddStates(kept)
	for q := 0; q < a.NumStates(); q++ {
		nq := remap[StateID(q)]
		if nq == None {
			continue
		}
		out.final[nq] = a.final[q]
		out.anno[nq] = append([]*formula.Formula(nil), a.anno[q]...)
		out.reserveEdges(nq, len(a.trans[q]))
		for _, e := range a.trans[q] {
			if nt := remap[e.to]; nt != None {
				out.addEdgeUnique(nq, e.sym, nt)
			}
		}
	}
	if a.start != None && remap[a.start] != None {
		out.SetStart(remap[a.start])
	}
	return out, remap
}

// labelRanks returns rank[sym] = position of sym's label in the
// lexicographic order of all interned labels (cached on the
// interner). Sorting edges by rank reproduces label-order iteration
// without touching strings.
func (a *Automaton) labelRanks() []int32 {
	return a.syms.Ranks()
}

// sortEdges sorts es in place by (rank, target); insertion sort, as
// edge lists are short and this runs inside the product kernels.
func sortEdges(es []edge, ranks []int32) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && edgeLess(es[j], es[j-1], ranks); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

func edgeLess(a, b edge, ranks []int32) bool {
	if ranks[a.sym] != ranks[b.sym] {
		return ranks[a.sym] < ranks[b.sym]
	}
	return a.to < b.to
}

// DebugString renders the automaton in a stable, line-oriented textual
// form for test failure messages and the figures tool.
func (a *Automaton) DebugString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "aFSA %q: %d states, start %d\n", a.Name, a.NumStates(), a.start)
	for q := 0; q < a.NumStates(); q++ {
		marker := " "
		if a.final[q] {
			marker = "*"
		}
		fmt.Fprintf(&b, "  %s%d", marker, q)
		if f := a.Annotation(StateID(q)); !f.IsTrue() {
			fmt.Fprintf(&b, " [%s]", f)
		}
		b.WriteString("\n")
		for _, t := range a.Transitions(StateID(q)) {
			fmt.Fprintf(&b, "      --%s--> %d\n", t.Label, t.To)
		}
	}
	return b.String()
}

func (a *Automaton) mustState(q StateID) {
	if q < 0 || int(q) >= a.NumStates() {
		panic(fmt.Sprintf("afsa %q: state %d out of range [0,%d)", a.Name, q, a.NumStates()))
	}
}
