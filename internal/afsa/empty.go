package afsa

import (
	"fmt"

	"repro/internal/formula"
	"repro/internal/label"
)

// ViableStates computes the annotated-emptiness semantics of Sec. 3.2:
// "this emptiness test has to be extended by requiring that all
// transitions of a conjunction associated to a single state are
// available in the automaton and a final state can be reached
// following each of these transitions."
//
// A state q is *viable* iff (i) a final state is reachable from q
// through viable states and (ii) its effective annotation evaluates to
// true under the assignment that makes a variable v true exactly when
// q has a v-labeled transition to a viable state. This is a greatest
// fixpoint interleaved with co-reachability: start from all states and
// repeatedly remove states that lose co-reachability (restricted to
// the surviving set) or whose annotation fails. Cyclic support is
// intentional — the buyer public process of Fig. 6 keeps its parcel
// tracking loop viable because loop and exit support each other, while
// the mandatory-but-missing msg1 of Fig. 5 still kills the
// intersection.
//
// The effective annotation conjoins the explicit annotations with the
// structural default: final states default to true (the conversation
// may stop), non-final states default to the disjunction of their
// outgoing labels (the conversation must be able to proceed — this is
// the "default annotation" the paper mentions in the Fig. 5
// discussion). A non-final state without outgoing transitions is never
// viable.
//
// Annotations must be positive (negation-free); ViableStates returns
// an error otherwise, since the fixpoint is only well-defined for
// monotone formulas. ε transitions are handled by evaluating on the
// ε-free version (state IDs are preserved).
func (a *Automaton) ViableStates() ([]bool, error) {
	if err := a.CheckPositive(); err != nil {
		return nil, err
	}
	src := a
	if a.HasEpsilon() {
		// RemoveEpsilon trims; recompute against the trimmed automaton
		// and translate back through the identity of reachable states.
		noEps := NewShared(a.Name, a.syms)
		noEps.AddStates(a.NumStates())
		noEps.SetStart(a.start)
		seen := make([]bool, a.NumStates())
		var closure []StateID
		for q := 0; q < a.NumStates(); q++ {
			for i := range seen {
				seen[i] = false
			}
			closure = a.closureInto(StateID(q), seen, closure[:0])
			noEps.reserveEdges(StateID(q), len(a.trans[q]))
			for _, c := range closure {
				if a.final[c] {
					noEps.final[q] = true
				}
				for _, f := range a.anno[c] {
					noEps.Annotate(StateID(q), f)
				}
				for _, e := range a.trans[c] {
					if e.sym != label.SymEpsilon {
						noEps.addEdgeUnique(StateID(q), e.sym, e.to)
					}
				}
			}
		}
		src = noEps
	}

	n := src.NumStates()
	labels := src.syms.Labels()
	eff := make([]*formula.Formula, n)
	// optSeen is a symbol-indexed presence array shared across states
	// (per-state mark values make resets free); varCache memoizes the
	// per-symbol variable formulas of the default annotations.
	optSeen := make([]int32, len(labels))
	varCache := make([]*formula.Formula, len(labels))
	for q := 0; q < n; q++ {
		parts := append([]*formula.Formula(nil), src.anno[q]...)
		if !src.final[q] {
			var opts []*formula.Formula
			mark := int32(q) + 1
			for _, e := range src.trans[q] {
				if optSeen[e.sym] != mark {
					optSeen[e.sym] = mark
					if varCache[e.sym] == nil {
						varCache[e.sym] = formula.Var(string(labels[e.sym]))
					}
					opts = append(opts, varCache[e.sym])
				}
			}
			parts = append(parts, formula.Or(opts...)) // empty Or = false
		}
		eff[q] = formula.And(parts...)
	}

	// Reverse adjacency for the co-reachability passes, in compressed
	// sparse form: two allocations instead of one bucket per state.
	m := 0
	for q := 0; q < n; q++ {
		m += len(src.trans[q])
	}
	revOff := make([]int32, n+1)
	for q := 0; q < n; q++ {
		for _, e := range src.trans[q] {
			revOff[e.to+1]++
		}
	}
	for q := 0; q < n; q++ {
		revOff[q+1] += revOff[q]
	}
	revFlat := make([]StateID, m)
	fill := make([]int32, n)
	copy(fill, revOff[:n])
	for q := 0; q < n; q++ {
		for _, e := range src.trans[q] {
			revFlat[fill[e.to]] = StateID(q)
			fill[e.to]++
		}
	}

	viable := make([]bool, n)
	for q := range viable {
		viable[q] = true
	}
	co := make([]bool, n)
	var stack []StateID
	for changed := true; changed; {
		changed = false

		// Pass 1: a viable state must reach a viable final state
		// through viable states.
		for i := range co {
			co[i] = false
		}
		stack = stack[:0]
		for q := 0; q < n; q++ {
			if viable[q] && src.final[q] {
				co[q] = true
				stack = append(stack, StateID(q))
			}
		}
		for len(stack) > 0 {
			q := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range revFlat[revOff[q]:revOff[q+1]] {
				if viable[p] && !co[p] {
					co[p] = true
					stack = append(stack, p)
				}
			}
		}
		for q := 0; q < n; q++ {
			if viable[q] && !co[q] {
				viable[q] = false
				changed = true
			}
		}

		// Pass 2: the effective annotation must hold, counting only
		// transitions into states that are still viable.
		for q := 0; q < n; q++ {
			if !viable[q] {
				continue
			}
			// Annotation variables are label texts; Lookup resolves
			// them to symbols (a lock-guarded map read, no copy of
			// the potentially choreography-wide interner) so the
			// edge probes compare integers.
			sigma := func(name string) bool {
				sym, ok := src.syms.Lookup(label.Label(name))
				if !ok {
					return false
				}
				for _, e := range src.trans[q] {
					if e.sym == sym && viable[e.to] {
						return true
					}
				}
				return false
			}
			if !eff[q].Eval(sigma) {
				viable[q] = false
				changed = true
			}
		}
	}
	return viable, nil
}

// IsEmpty reports annotated emptiness: the automaton is empty iff its
// start state is not viable (no message sequence satisfying every
// mandatory annotation leads to a final state). An automaton without
// states is empty.
func (a *Automaton) IsEmpty() (bool, error) {
	if a.NumStates() == 0 || a.start == None {
		return true, nil
	}
	viable, err := a.ViableStates()
	if err != nil {
		return false, err
	}
	return !viable[a.start], nil
}

// Consistent reports bilateral consistency of two public processes
// (Sec. 3.2): their intersection is non-empty, which the paper proves
// equivalent to deadlock-free execution of the interaction.
func Consistent(a, b *Automaton) (bool, error) {
	empty, err := a.Intersect(b).IsEmpty()
	if err != nil {
		return false, fmt.Errorf("consistency %q vs %q: %w", a.Name, b.Name, err)
	}
	return !empty, nil
}
