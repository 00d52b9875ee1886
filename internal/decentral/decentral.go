// Package decentral implements the decentralized consistency
// establishment named in paper Sec. 6 (refs [16, 17]): the parties of
// a choreography check global consistency without any central
// coordinator — "the only information which has to be exchanged
// between partners is about the changes applied to public processes.
// The difference calculation as well as the necessary adaptations of
// the own public and private processes can be accomplished locally."
//
// The protocol is simulated with explicit message counting so the
// benchmarks can compare it against the centralized alternative
// (building the global product state space, package runtime):
//
//	round 1:  every party sends its bilateral view to each partner
//	          (one message per directed interacting pair);
//	round 2:  the lexicographically smaller party of each pair checks
//	          bilateral consistency locally and broadcasts the verdict.
//
// Global consistency is the conjunction of the bilateral verdicts —
// the paper's criterion. The Outcome reports messages, rounds and
// local work (automata-product states built).
package decentral

import (
	"fmt"
	"sort"

	"repro/internal/afsa"
)

// Node is one participant in the protocol.
type Node struct {
	Party  string
	Public *afsa.Automaton
}

// PairVerdict is the locally computed result for one pair.
type PairVerdict struct {
	A, B       string
	Checker    string // the party that ran the check
	Consistent bool
	// ProductStates is the size of the intersection automaton built
	// locally (the local work measure).
	ProductStates int
}

// Outcome summarizes one protocol run.
type Outcome struct {
	Consistent bool
	Verdicts   []PairVerdict
	// Messages is the number of protocol messages exchanged.
	Messages int
	// Rounds is the number of synchronous protocol rounds.
	Rounds int
	// LocalStates is the summed size of all locally built products —
	// the decentralized counterpart of the global product size.
	LocalStates int
}

// Establish runs the protocol on the given nodes.
func Establish(nodes []Node) (*Outcome, error) {
	if len(nodes) < 2 {
		return nil, fmt.Errorf("decentral: need at least two nodes")
	}
	byName := map[string]*Node{}
	var names []string
	for i := range nodes {
		n := &nodes[i]
		if n.Public == nil {
			return nil, fmt.Errorf("decentral: node %q has no public process", n.Party)
		}
		if _, dup := byName[n.Party]; dup {
			return nil, fmt.Errorf("decentral: duplicate node %q", n.Party)
		}
		byName[n.Party] = n
		names = append(names, n.Party)
	}
	sort.Strings(names)

	out := &Outcome{Consistent: true, Rounds: 2}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			a, b := byName[names[i]], byName[names[j]]
			if !interacts(a.Public, b.Public, a.Party, b.Party) {
				continue
			}
			// Round 1: both sides exchange their bilateral views.
			out.Messages += 2
			viewA := a.Public.View(b.Party) // what A exposes to B
			viewB := b.Public.View(a.Party)
			// Round 2: the smaller party checks locally and
			// broadcasts the verdict to the pair (1 message).
			inter := viewA.Intersect(viewB)
			empty, err := inter.IsEmpty()
			if err != nil {
				return nil, fmt.Errorf("decentral: pair %s/%s: %w", a.Party, b.Party, err)
			}
			out.Messages++
			v := PairVerdict{
				A: a.Party, B: b.Party, Checker: a.Party,
				Consistent:    !empty,
				ProductStates: inter.NumStates(),
			}
			out.LocalStates += inter.NumStates()
			out.Verdicts = append(out.Verdicts, v)
			if empty {
				out.Consistent = false
			}
		}
	}
	return out, nil
}

func interacts(a, b *afsa.Automaton, pa, pb string) bool {
	for l := range a.Alphabet() {
		if l.Between(pa, pb) {
			return true
		}
	}
	for l := range b.Alphabet() {
		if l.Between(pa, pb) {
			return true
		}
	}
	return false
}

// PropagationRun simulates the decentralized introduction of a change
// (Sec. 6 final paragraph): the originator sends its changed view to
// every affected partner (one message each); each partner answers with
// accept (still consistent) or reject (adaptation needed). The second
// element counts partners that must adapt.
func PropagationRun(origin string, newViews map[string]*afsa.Automaton, partners []Node) (messages int, adaptations int, err error) {
	for _, p := range partners {
		view, ok := newViews[p.Party]
		if !ok {
			continue
		}
		messages++ // origin -> partner: changed view
		ok2, cerr := afsa.Consistent(view, p.Public.View(origin))
		if cerr != nil {
			return 0, 0, cerr
		}
		messages++ // partner -> origin: verdict
		if !ok2 {
			adaptations++
		}
	}
	return messages, adaptations, nil
}
