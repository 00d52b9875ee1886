package afsa

import "repro/internal/label"

// Stepper is an allocation-free single-step evaluator over a (usually
// deterministic) automaton: a dense state×symbol next-state table plus
// a lock-free label→symbol lookup snapshot. It front-loads what trace
// replay loops — instance-migration compliance checks, per-event
// ingest stepping — otherwise pay per message: label hashing and a
// linear transition scan that allocates a target slice.
//
// A Stepper is immutable after construction and safe for concurrent
// use. It snapshots the automaton at construction time; it must not
// be used across later mutations of the automaton.
//
// For a nondeterministic state the table keeps the smallest target per
// symbol, matching the historical Step(q, l)[0] convention of replay
// callers; ε edges are recorded under ε's symbol and are never taken
// by replay (traces contain no ε).
type Stepper struct {
	next  []StateID // state*ns + symbol → target (None when absent)
	ns    int
	sym   map[label.Label]label.Symbol
	start StateID
}

// NewStepper builds the dense step table of a.
func NewStepper(a *Automaton) *Stepper {
	// Build the lookup map and the table width from ONE labels
	// snapshot: the interner may be shared and growing concurrently,
	// and a map taken later than the width could hand out symbols
	// beyond the table. Symbols interned after the automaton was
	// built cannot occur on its edges, so truncating to the snapshot
	// is exact.
	labels := a.syms.Labels()
	ns := len(labels)
	sym := make(map[label.Label]label.Symbol, ns)
	for s, l := range labels {
		sym[l] = label.Symbol(s)
	}
	next := make([]StateID, a.NumStates()*ns)
	for i := range next {
		next[i] = None
	}
	for q := range a.trans {
		for _, e := range a.trans[q] {
			idx := q*ns + int(e.sym)
			if next[idx] == None || e.to < next[idx] {
				next[idx] = e.to
			}
		}
	}
	return &Stepper{next: next, ns: ns, sym: sym, start: a.Start()}
}

// Start returns the automaton's start state (None when it has none).
func (s *Stepper) Start() StateID { return s.start }

// Step returns the l-successor of q, or None when q has no
// l-transition (or l is unknown to the automaton's alphabet).
func (s *Stepper) Step(q StateID, l label.Label) StateID {
	if q == None {
		return None
	}
	sym, ok := s.sym[l]
	if !ok {
		return None
	}
	return s.next[int(q)*s.ns+int(sym)]
}

// StepSym is Step for a pre-interned symbol: no label hashing at all.
// Symbols outside the table width — interned into a shared interner
// after this stepper was built — cannot occur on the automaton's edges,
// so they step to None exactly like an unknown label.
//
// This is the per-event kernel of every replay loop;
// TestStepSymAllocs pins it at zero allocations.
func (s *Stepper) StepSym(q StateID, sym label.Symbol) StateID {
	if q == None || sym < 0 || int(sym) >= s.ns {
		return None
	}
	return s.next[int(q)*s.ns+int(sym)]
}

// Symbol returns the stepper's symbol for l (taken from its
// construction-time snapshot of the interner), reporting whether the
// label is known at all.
func (s *Stepper) Symbol(l label.Label) (label.Symbol, bool) {
	sym, ok := s.sym[l]
	return sym, ok
}
